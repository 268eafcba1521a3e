//! Fleet study: carbon-aware routing across two junk-phone cloudlets and a
//! datacenter backend under a diurnal load, versus the paper's static
//! placement — the coupled extension of Figures 7–9.
//!
//! Runs a reduced study by default; set `JUNKYARD_FULL=1` for the
//! 24-window full-scale day (slower). Writes each policy's request and
//! carbon accounting to `FLEET_study.json` (or the path given as the
//! first argument), every number printed at full round-trip precision so
//! CI's byte-identity check catches any moved bit.
use std::fmt::Write as _;

use junkyard_bench::{emit_chart, emit_table, full_scale};
use junkyard_core::fleet_study::FleetStudy;

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "FLEET_study.json".to_owned());
    let study = if full_scale() {
        FleetStudy::paper_scale()
    } else {
        FleetStudy::quick()
    };
    let result = study.run().expect("the fleet builds and runs");
    emit_chart(&result.chart());
    emit_table(&result.table());
    let base = result
        .baseline()
        .grams_per_request()
        .expect("the schedule offers traffic");
    let aware = result
        .carbon_aware()
        .grams_per_request()
        .expect("the schedule offers traffic");
    println!("static placement:     {:.4} mgCO2e/request", base * 1_000.0);
    println!(
        "carbon-aware routing: {:.4} mgCO2e/request",
        aware * 1_000.0
    );
    println!(
        "carbon-aware saves {:.1}% ({} windows, {} sites)",
        result.savings_percent(),
        result.baseline().window_health().len(),
        result.baseline().site_names().len(),
    );

    let mut json = String::new();
    json.push_str("{\n  \"study\": \"fleet\",\n  \"policies\": [\n");
    let policies: Vec<String> = [result.baseline(), result.carbon_aware()]
        .iter()
        .map(|r| {
            format!(
                "    {{\"policy\": \"{}\", \"served_requests\": {}, \
                 \"declined_requests\": {}, \"queue_dropped_requests\": {}, \
                 \"operational_g\": {}, \"embodied_g\": {}, \
                 \"total_carbon_g\": {}, \"grams_per_request\": {}}}",
                r.policy().label(),
                r.total_requests(),
                r.router_declined_requests(),
                r.queue_dropped_requests(),
                r.total_operational().grams(),
                r.total_embodied().grams(),
                r.total_carbon().grams(),
                r.grams_per_request().unwrap_or(0.0),
            )
        })
        .collect();
    json.push_str(&policies.join(",\n"));
    let _ = writeln!(
        json,
        "\n  ],\n  \"savings_percent\": {}\n}}",
        result.savings_percent()
    );
    std::fs::write(&output, &json).expect("report file is writable");
    println!("wrote {output}");
}
