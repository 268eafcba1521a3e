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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let study = FleetStudy::quick();

    // Peek at the routing plan before running anything: the carbon-aware
    // policy's assignments depend only on the schedule, the capacities and
    // the intensity traces.
    let fleet = study.build_fleet(RoutingPolicy::CarbonAware)?;
    println!("Carbon-aware plan (mean qps per window):");
    println!(
        "  {:>8} {:>14} {:>14} {:>12}",
        "window", "cloudlet-west", "cloudlet-east", "datacenter"
    );
    for (w, assignment) in fleet.assignments().iter().enumerate() {
        println!(
            "  {w:>8} {:>14.0} {:>14.0} {:>12.0}",
            assignment.site_mean_qps(0),
            assignment.site_mean_qps(1),
            assignment.site_mean_qps(2),
        );
    }

    println!("\nSimulating both policies (every window x site cell runs the compiled engine)...\n");
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
