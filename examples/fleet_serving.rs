//! Run a carbon-aware fleet of junk-phone cloudlets across two grids.
//!
//! Builds the two-region fleet study — a CAISO-like grid, its antipodal
//! twin twelve hours out of phase, and a gas-heavy datacenter backend —
//! drives a diurnal compose-post load through the compiled microsim
//! engine, and compares the paper's static placement against carbon-aware
//! routing on grams of CO2e per request.
//!
//! Run with: `cargo run --release --example fleet_serving`

use junkyard::core::fleet_study::FleetStudy;
use junkyard::fleet::routing::RoutingPolicy;
use junkyard::obs::{EventKind, TraceRecorder};

const SITES: [&str; 3] = ["cloudlet-west", "cloudlet-east", "datacenter"];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let study = FleetStudy::quick();

    // Peek at the carbon-aware routing plan: a traced run records one
    // `route` event per (window, site) share, keyed by site name and
    // detailed with the window index.
    let mut recorder = TraceRecorder::new();
    let windows = study
        .build_fleet(RoutingPolicy::CarbonAware)?
        .run_with(&mut recorder)?
        .window_health()
        .len();
    let mut plan = vec![[0.0; 3]; windows];
    for (_, event) in recorder.events_in_order() {
        let site = SITES.iter().position(|name| *name == event.key);
        if let (EventKind::Route, Some(site)) = (event.kind, site) {
            let window: usize = event.detail.trim_start_matches('w').parse()?;
            plan[window][site] = event.value;
        }
    }
    println!("Carbon-aware plan (mean qps per window):");
    println!(
        "  {:>8} {:>14} {:>14} {:>12}",
        "window", SITES[0], SITES[1], SITES[2]
    );
    for (w, qps) in plan.iter().enumerate() {
        println!(
            "  {w:>8} {:>14.0} {:>14.0} {:>12.0}",
            qps[0], qps[1], qps[2]
        );
    }

    println!(
        "\nSimulating both policies (each distinct window load runs the compiled engine)...\n"
    );
    let result = study.run()?;
    println!("{}", result.chart());
    println!("{}", result.table());

    let base = result
        .baseline()
        .grams_per_request()
        .expect("traffic offered");
    let aware = result
        .carbon_aware()
        .grams_per_request()
        .expect("traffic offered");
    println!("static placement:     {:.4} mgCO2e/request", base * 1_000.0);
    println!(
        "carbon-aware routing: {:.4} mgCO2e/request",
        aware * 1_000.0
    );
    println!(
        "carbon-aware saves {:.1}% carbon per request",
        result.savings_percent()
    );
    Ok(())
}
