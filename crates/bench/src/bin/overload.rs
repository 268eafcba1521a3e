//! Overload study: drop and tail behaviour of the Pixel 3A cloudlet
//! pushed 2–10× past its sustainable rate, under each queue discipline
//! (centralized vs distributed FCFS) and core layout (combined vs
//! dedicated network cores), with 64-deep bounded application queues.
//!
//! Runs a reduced study by default; set `JUNKYARD_FULL=1` for the full
//! 0.25×–10× multiplier grid with longer measurements. Writes the knee
//! and every variant's curve to `OVERLOAD_study.json` (or the path given
//! as the first argument) so CI can archive it with the perf report.
use std::fmt::Write as _;

use junkyard_bench::full_scale;
use junkyard_core::overload_study::OverloadStudy;

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "OVERLOAD_study.json".to_owned());
    let study = if full_scale() {
        OverloadStudy::paper_scale()
    } else {
        OverloadStudy::quick()
    };
    let result = study.run().expect("the overload study builds and runs");

    println!(
        "knee of the default deployment: {:.0} qps (queue bound {} slots)",
        result.knee_qps(),
        result.queue_size()
    );
    for variant in result.curves() {
        let worst = variant
            .points()
            .iter()
            .map(|p| p.drop_fraction())
            .fold(0.0, f64::max);
        println!("  {:<22} worst drop fraction {:.3}", variant.label(), worst);
    }
    println!(
        "drop-free below the knee: {}; every variant sheds at >=2x: {}",
        result.drop_free_below_knee(),
        result.all_variants_drop_at(2.0)
    );

    let mut json = String::new();
    json.push_str("{\n  \"study\": \"overload\",\n");
    let _ = writeln!(
        json,
        "  \"knee_qps\": {:.3},\n  \"queue_size\": {},\n  \"multipliers\": [{}],",
        result.knee_qps(),
        result.queue_size(),
        result
            .multipliers()
            .iter()
            .map(|m| format!("{m}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("  \"variants\": [\n");
    let variants: Vec<String> = result
        .curves()
        .iter()
        .map(|variant| {
            let points: Vec<String> = variant
                .points()
                .iter()
                .map(|p| {
                    format!(
                        "{{\"qps\": {:.3}, \"median_ms\": {:.3}, \"tail_ms\": {:.3}, \
                         \"drop_fraction\": {:.6}}}",
                        p.qps(),
                        p.median_ms(),
                        p.tail_ms(),
                        p.drop_fraction()
                    )
                })
                .collect();
            format!(
                "    {{\"label\": \"{}\", \"points\": [{}]}}",
                variant.label(),
                points.join(", ")
            )
        })
        .collect();
    json.push_str(&variants.join(",\n"));
    json.push_str("\n  ],\n");
    let _ = writeln!(
        json,
        "  \"drop_free_below_knee\": {},\n  \"all_drop_at_2x\": {}\n}}",
        result.drop_free_below_knee(),
        result.all_variants_drop_at(2.0)
    );
    std::fs::write(&output, &json).expect("report file is writable");
    println!("wrote {output}");
}
