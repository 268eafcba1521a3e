//! Engine performance report: runs fixed microsim scenarios (the two
//! DeathStarBench applications at three load points each, plus a serial
//! versus threaded sweep and the quick fleet study) with wall-clock timing
//! and writes the numbers to `BENCH_microsim.json` so the engine's perf
//! trajectory — including the coupled fleet path — is tracked across PRs.
//!
//! Every top-level phase runs under the serial-side
//! [`junkyard_obs::Profiler`]: the report gains a `"profile"` section
//! (per-stage inclusive wall ms) and a collapsed-stack sidecar
//! (`PROFILE.folded`, flamegraph-ready) next to the JSON. The sweep
//! entry reports the worker count actually used, so a silently capped
//! fan-out (one-core runner, `available_parallelism() == 1`) is visible
//! in the numbers instead of masquerading as a threading regression.
//!
//! Usage: `cargo run --release --bin perf_report [output.json [profile.folded]]`
//! (defaults: `BENCH_microsim.json` and `PROFILE.folded` in the working
//! directory).

use std::fmt::Write as _;
use std::time::Instant;

use junkyard_core::fleet_study::FleetStudy;
use junkyard_core::lifecycle_study::LifecycleStudy;
use junkyard_core::planner_study::PlannerStudy;

use junkyard_microsim::app::{hotel_reservation, social_network, SN_COMPOSE_POST};
use junkyard_microsim::compiled::CompiledSim;
use junkyard_microsim::network::NetworkModel;
use junkyard_microsim::node::ten_pixel_cloudlet;
use junkyard_microsim::placement::Placement;
use junkyard_microsim::sim::{Simulation, Workload};
use junkyard_microsim::sweep::SweepConfig;
use junkyard_obs::{Profiler, TraceRecorder};

/// Timed result of one fixed scenario.
struct ScenarioResult {
    app: &'static str,
    request_type: Option<&'static str>,
    qps: f64,
    duration_s: f64,
    offered: usize,
    events: u64,
    wall_ms: f64,
    events_per_sec: f64,
    median_ms: f64,
    tail_ms: f64,
}

/// Runs one scenario three times and keeps the fastest wall clock (the
/// metrics are deterministic, so any run's metrics serve).
fn run_scenario(
    sim: &CompiledSim,
    app: &'static str,
    request_type: Option<&'static str>,
    qps: f64,
    duration_s: f64,
) -> ScenarioResult {
    let workload = Workload::steady(qps, duration_s, request_type, 42);
    let mut best_ms = f64::INFINITY;
    let mut metrics = None;
    for _ in 0..3 {
        let start = Instant::now();
        let run = sim.run(&workload).expect("fixed scenarios run");
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1_000.0);
        metrics = Some(run);
    }
    let metrics = metrics.expect("at least one timed run");
    let stats = metrics.latency_stats();
    ScenarioResult {
        app,
        request_type,
        qps,
        duration_s,
        offered: metrics.offered(),
        events: metrics.events_processed(),
        wall_ms: best_ms,
        events_per_sec: metrics.events_processed() as f64 / (best_ms / 1_000.0),
        median_ms: stats.median_ms().unwrap_or(0.0),
        tail_ms: stats.tail_ms().unwrap_or(0.0),
    }
}

fn phone_cloudlet(app: junkyard_microsim::app::Application) -> Simulation {
    let nodes = ten_pixel_cloudlet();
    let placement = Placement::swarm_spread(&app, &nodes, 11).expect("cloudlet fits");
    Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).expect("sim builds")
}

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_microsim.json".to_owned());
    let folded_output = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "PROFILE.folded".to_owned());

    let mut profiler = Profiler::new();
    profiler.start("perf_report");

    let (social, hotel) = profiler.time("compile", || {
        (
            phone_cloudlet(social_network()).compile(),
            phone_cloudlet(hotel_reservation()).compile(),
        )
    });

    let load_points = [1_000.0, 3_000.0, 5_000.0];
    let mut scenarios = Vec::new();
    profiler.start("scenarios");
    for qps in load_points {
        scenarios.push(profiler.time(&format!("social-{qps}qps"), || {
            run_scenario(&social, "SocialNetwork", Some(SN_COMPOSE_POST), qps, 2.0)
        }));
    }
    for qps in load_points {
        scenarios.push(profiler.time(&format!("hotel-{qps}qps"), || {
            run_scenario(&hotel, "HotelReservation", None, qps, 2.0)
        }));
    }
    profiler.stop();

    // Serial vs threaded sweep over eight load points (same curve either
    // way; the ratio tracks the threading win on this machine).
    profiler.start("sweep");
    let sweep_points: Vec<f64> = (1..=8).map(|i| f64::from(i) * 600.0).collect();
    let sweep = SweepConfig::new(sweep_points.clone(), 2.0, 0.5).request_type(SN_COMPOSE_POST);
    let serial_curve = profiler.time("serial", || {
        sweep
            .clone()
            .parallelism(1)
            .run_compiled("phones", &social)
            .expect("sweep runs")
    });
    let threaded_curve = profiler.time("threaded", || {
        sweep.run_compiled("phones", &social).expect("sweep runs")
    });
    assert_eq!(
        serial_curve, threaded_curve,
        "threaded sweeps must be point-identical to serial ones"
    );
    let sweep_serial_ms = profiler
        .stage_ms("perf_report;sweep;serial")
        .expect("serial stage timed");
    let sweep_threaded_ms = profiler
        .stage_ms("perf_report;sweep;threaded")
        .expect("threaded stage timed");
    // The same sweep once more with the recorder attached: tracing must
    // not move a single point.
    let sweep_workers = sweep.effective_workers();
    let mut sweep_recorder = TraceRecorder::new();
    let traced_curve = profiler.time("traced", || {
        sweep
            .run_compiled_traced("phones", &social, &mut sweep_recorder)
            .expect("traced sweep runs")
    });
    assert_eq!(
        traced_curve, threaded_curve,
        "the traced sweep must reproduce the untraced curve"
    );
    profiler.stop();

    // The coupled fleet path: the quick two-region study (both routing
    // policies), timed end to end so regressions in the fleet layer show
    // up alongside the engine scenarios.
    let fleet = profiler.time("fleet", || {
        FleetStudy::quick().run().expect("the fleet study runs")
    });
    let fleet_wall_ms = profiler
        .stage_ms("perf_report;fleet")
        .expect("fleet stage timed");
    let fleet_cells = fleet.baseline().cells().len() + fleet.carbon_aware().cells().len();

    // The multi-year lifecycle path: a reduced two-year run of both
    // deployments (cloudlet cohorts with battery wear and failures, plus
    // the leased datacenter), timed end to end.
    let lifecycle = profiler.time("lifecycle", || {
        LifecycleStudy::quick()
            .years(2)
            .run()
            .expect("the lifecycle study runs")
    });
    let lifecycle_wall_ms = profiler
        .stage_ms("perf_report;lifecycle")
        .expect("lifecycle stage timed");
    let lifecycle_cells = lifecycle.cloudlet().cells().len() + lifecycle.datacenter().cells().len();

    // The provisioning search: the quick planner study (enumerate,
    // screen, successive halving, local search), timed end to end so the
    // search layer's wall clock, evaluation count and cache hit rate are
    // tracked across PRs.
    let planner = profiler.time("planner", || {
        PlannerStudy::quick().run().expect("the planner study runs")
    });
    let planner_wall_ms = profiler
        .stage_ms("perf_report;planner")
        .expect("planner stage timed");
    let planner_outcome = planner.outcome();
    assert!(
        planner_outcome.cache_hit_rate() > 0.0,
        "the planner search must record cache hits (mutation rounds revisit elites)"
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"microsim_engine\",\n  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        let rt = s
            .request_type
            .map_or("null".to_owned(), |r| format!("\"{r}\""));
        let _ = writeln!(
            json,
            "    {{\"app\": \"{}\", \"request_type\": {}, \"qps\": {}, \"duration_s\": {}, \
             \"offered\": {}, \"events\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, \
             \"median_ms\": {:.3}, \"tail_ms\": {:.3}}}{}",
            s.app,
            rt,
            s.qps,
            s.duration_s,
            s.offered,
            s.events,
            s.wall_ms,
            s.events_per_sec,
            s.median_ms,
            s.tail_ms,
            if i + 1 < scenarios.len() { "," } else { "" },
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"sweep\": {{\"points\": {}, \"workers\": {}, \"wall_ms_serial\": {:.3}, \
         \"wall_ms_threaded\": {:.3}, \"speedup\": {:.4}}},",
        sweep_points.len(),
        sweep_workers,
        sweep_serial_ms,
        sweep_threaded_ms,
        sweep_serial_ms / sweep_threaded_ms,
    );
    let _ = writeln!(
        json,
        "  \"fleet\": {{\"windows\": {}, \"sites\": {}, \"cells\": {}, \"wall_ms\": {:.3}, \
         \"static_mg_per_request\": {:.6}, \"carbon_aware_mg_per_request\": {:.6}}},",
        fleet.baseline().windows(),
        fleet.baseline().site_names().len(),
        fleet_cells,
        fleet_wall_ms,
        fleet.baseline().grams_per_request().unwrap_or(0.0) * 1_000.0,
        fleet.carbon_aware().grams_per_request().unwrap_or(0.0) * 1_000.0,
    );
    let _ = writeln!(
        json,
        "  \"lifecycle\": {{\"years\": {}, \"cells\": {}, \"wall_ms\": {:.3}, \
         \"cloudlet_mg_per_request\": {:.6}, \"datacenter_mg_per_request\": {:.6}, \
         \"crossover_day\": {}}},",
        lifecycle.cloudlet().years(),
        lifecycle_cells,
        lifecycle_wall_ms,
        lifecycle.cloudlet().grams_per_request().unwrap_or(0.0) * 1_000.0,
        lifecycle.datacenter().grams_per_request().unwrap_or(0.0) * 1_000.0,
        lifecycle
            .crossover_day()
            .map_or("null".to_owned(), |d| d.to_string()),
    );
    let _ = writeln!(
        json,
        "  \"planner\": {{\"wall_ms\": {:.3}, \"candidates_enumerated\": {}, \
         \"screened_out\": {}, \"candidates_evaluated\": {}, \"cache_hits\": {}, \
         \"cache_misses\": {}, \"cache_hit_rate\": {:.6}, \"frontier_size\": {}, \
         \"best_mg_per_request\": {:.6}, \"baseline_mg_per_request\": {:.6}, \
         \"improvement_percent\": {:.4}}},",
        planner_wall_ms,
        planner_outcome.candidates_enumerated(),
        planner_outcome.screened_out(),
        planner_outcome.fresh_evaluations(),
        planner_outcome.cache_hits(),
        planner_outcome.cache_misses(),
        planner_outcome.cache_hit_rate(),
        planner_outcome.frontier().len(),
        planner
            .best()
            .and_then(|b| b.evaluation().grams_per_request())
            .unwrap_or(0.0)
            * 1_000.0,
        planner
            .baseline()
            .evaluation()
            .grams_per_request()
            .unwrap_or(0.0)
            * 1_000.0,
        planner.improvement_percent(),
    );

    profiler.stop();
    let _ = json.write_str("  \"profile\": [\n");
    let stages = profiler.stages();
    for (i, (path, ms)) in stages.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"stage\": \"{path}\", \"wall_ms\": {ms:.3}}}{}",
            if i + 1 < stages.len() { "," } else { "" },
        );
    }
    let _ = json.write_str("  ]\n}\n");

    std::fs::write(&output, &json).expect("report file is writable");
    std::fs::write(&folded_output, profiler.folded()).expect("folded file is writable");

    println!("Engine perf report (written to {output}):\n");
    println!(
        "  {:16} {:20} {:>7} {:>9} {:>9} {:>12} {:>10}",
        "app", "request type", "qps", "offered", "wall ms", "events/sec", "median ms"
    );
    for s in &scenarios {
        println!(
            "  {:16} {:20} {:>7} {:>9} {:>9.2} {:>12.0} {:>10.2}",
            s.app,
            s.request_type.unwrap_or("(mixed)"),
            s.qps,
            s.offered,
            s.wall_ms,
            s.events_per_sec,
            s.median_ms,
        );
    }
    println!(
        "\n  sweep ({} points, {} workers): serial {:.1} ms, threaded {:.1} ms ({:.2}x)",
        sweep_points.len(),
        sweep_workers,
        sweep_serial_ms,
        sweep_threaded_ms,
        sweep_serial_ms / sweep_threaded_ms,
    );
    println!(
        "  fleet study ({} cells across both policies): {:.1} ms, \
         static {:.4} vs carbon-aware {:.4} mgCO2e/request",
        fleet_cells,
        fleet_wall_ms,
        fleet.baseline().grams_per_request().unwrap_or(0.0) * 1_000.0,
        fleet.carbon_aware().grams_per_request().unwrap_or(0.0) * 1_000.0,
    );
    println!(
        "  lifecycle study ({} year-site cells, both deployments): {:.1} ms, \
         cloudlets {:.4} vs datacenter {:.4} mgCO2e/request",
        lifecycle_cells,
        lifecycle_wall_ms,
        lifecycle.cloudlet().grams_per_request().unwrap_or(0.0) * 1_000.0,
        lifecycle.datacenter().grams_per_request().unwrap_or(0.0) * 1_000.0,
    );
    println!(
        "  planner search ({} candidates, {} simulations, {:.0}% cache hits): {:.1} ms, \
         argmin {:.4} vs hand-built {:.4} mgCO2e/request",
        planner_outcome.candidates_enumerated(),
        planner_outcome.fresh_evaluations(),
        planner_outcome.cache_hit_rate() * 100.0,
        planner_wall_ms,
        planner
            .best()
            .and_then(|b| b.evaluation().grams_per_request())
            .unwrap_or(0.0)
            * 1_000.0,
        planner
            .baseline()
            .evaluation()
            .grams_per_request()
            .unwrap_or(0.0)
            * 1_000.0,
    );
}
