//! Engine performance report: runs fixed microsim scenarios (the two
//! DeathStarBench applications at three load points each, plus a serial
//! versus threaded sweep and the quick fleet study) with wall-clock timing
//! and writes the numbers to `BENCH_microsim.json` so the engine's perf
//! trajectory — including the coupled fleet path — is tracked across PRs.
//!
//! Every top-level phase runs under the serial-side
//! [`junkyard_bench::profiler::Profiler`]: the report gains a
//! `"profile"` section (per-stage inclusive wall ms) and a
//! collapsed-stack sidecar (`PROFILE.folded`, flamegraph-ready) next to
//! the JSON. The sweep entry reports the worker count actually used, so
//! a silently capped fan-out (one-core runner,
//! `available_parallelism() == 1`) is visible in the numbers instead of
//! masquerading as a threading regression. The `"host"` entry times a
//! fixed single-thread spin ([`HOST_SPIN_ITERATIONS`]), so a reader
//! comparing reports across PRs can tell a slower host from slower code.
//!
//! After writing both files the report checks its own numbers against two
//! performance floors ([`MIN_EVENTS_PER_SEC`], [`MIN_SWEEP_SPEEDUP`]),
//! prints one ok/FAIL line per check and exits 1 on any miss, so the same
//! run is CI's performance gate. The sweep check takes the median speed-up
//! of [`SWEEP_PAIRS`] alternating serial/threaded runs, timed after every
//! sweep worker has spun for [`SWEEP_SPIN`], so it times the fan-out
//! rather than an idle host waking up or one burst of host load.
//!
//! Usage: `cargo run --release --bin perf_report [output.json [profile.folded]]`
//! (defaults: `BENCH_microsim.json` and `PROFILE.folded` in the working
//! directory).

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

use junkyard_core::deployments::{build_deployment, DeploymentKind};
use junkyard_core::fleet_study::FleetStudy;
use junkyard_core::lifecycle_study::LifecycleStudy;
use junkyard_core::planner_study::PlannerStudy;

use junkyard_bench::profiler::Profiler;
use junkyard_microsim::app::{hotel_reservation, social_network, SN_COMPOSE_POST};
use junkyard_microsim::compiled::CompiledSim;
use junkyard_microsim::sim::Workload;
use junkyard_microsim::sweep::SweepConfig;
use junkyard_obs::TraceRecorder;

/// Every fixed scenario must sustain at least this many engine events per
/// wall second. Exact timings on shared runners are too noisy to gate on, so
/// the floor sits about 4x below the slowest scenario measured when it was
/// set: only a real regression trips it. Raise it by hand once an engine
/// gain is real; never lower it to pass.
const MIN_EVENTS_PER_SEC: f64 = 2_500_000.0;

/// When the sweep fans out over two or more workers, the threaded sweep must
/// beat the serial one by at least this factor, in the median of
/// [`SWEEP_PAIRS`] pairs. On one worker the check is skipped: a capped
/// fan-out is a fact of the host, not a regression.
const MIN_SWEEP_SPEEDUP: f64 = 1.5;

/// Alternating serial/threaded sweep runs the sweep check takes the median
/// speed-up of. One pair cannot tell a serialised fan-out from a busy host.
/// The pairs span 4–6 s on a 2-vCPU host, so a co-tenant that takes one
/// vCPU for a second or two slows fewer than half of them.
const SWEEP_PAIRS: usize = 15;

/// How long every sweep worker busy-spins before the timed pairs. An idle
/// host runs the first seconds of a threaded sweep at serial speed, so
/// pairs timed straight away measure the host waking up, not the fan-out.
const SWEEP_SPIN: Duration = Duration::from_secs(3);

/// Iterations of the host-speed spin: tens of milliseconds on a current
/// core, and the count perfbench's host calibration spins, so the two
/// reports' `spin_ms` compare.
const HOST_SPIN_ITERATIONS: u64 = 40_000_000;

/// The floor verdict on one report: one printable line per check and
/// whether it passed (a skipped check passes). Takes each scenario's
/// events/sec, the sweep's worker count and its threaded speed-up.
fn floor_checks(rates: &[f64], workers: usize, speedup: f64) -> Vec<(bool, String)> {
    let verdict = |ok: bool| if ok { "ok" } else { "FAIL" };
    let mut checks: Vec<(bool, String)> = rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let ok = rate >= MIN_EVENTS_PER_SEC;
            let line = format!(
                "scenario {i}: {rate:.0} events/sec (floor {MIN_EVENTS_PER_SEC:.0}) {}",
                verdict(ok)
            );
            (ok, line)
        })
        .collect();
    checks.push(if workers >= 2 {
        let ok = speedup >= MIN_SWEEP_SPEEDUP;
        let line = format!(
            "sweep: median {speedup:.2}x of {SWEEP_PAIRS} pairs over {workers} workers \
             (floor {MIN_SWEEP_SPEEDUP:.2}x) {}",
            verdict(ok)
        );
        (ok, line)
    } else {
        let line = format!(
            "sweep: {speedup:.2}x — skipped, fan-out capped at {workers} worker (one-core runner)"
        );
        (true, line)
    });
    checks
}

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

/// Busy-spins `workers` threads for `duration`, so every vCPU the sweep
/// fans out to is awake before the timed pairs start.
fn spin(workers: usize, duration: Duration) {
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let start = Instant::now();
                let mut turns = 0u64;
                while start.elapsed() < duration {
                    turns = black_box(turns.wrapping_add(1));
                }
            });
        }
    });
}

/// Milliseconds one thread takes for [`HOST_SPIN_ITERATIONS`] rounds of
/// an integer xorshift the optimiser cannot fold: a fixed amount of work,
/// the fastest of three runs like every scenario's wall clock.
fn host_spin_ms() -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
            for _ in 0..HOST_SPIN_ITERATIONS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1_000.0
        })
        .fold(f64::INFINITY, f64::min)
}

/// The middle value (`values` is non-empty and odd-sized here).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn main() -> ExitCode {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_microsim.json".to_owned());
    let folded_output = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "PROFILE.folded".to_owned());

    let mut profiler = Profiler::new();
    profiler.start("perf_report");

    // The host's speed next to the timings below: CPUs this process may
    // use and a fixed single-thread spin.
    let nproc = thread::available_parallelism().map_or(1, |n| n.get());
    let spin_ms = profiler.time("host", host_spin_ms);

    let (social, hotel) = profiler.time("compile", || {
        let cloudlet = |app| {
            build_deployment(DeploymentKind::PhoneCloudlet, &app, 11)
                .expect("the ten-phone cloudlet builds")
                .compile()
        };
        (cloudlet(social_network()), cloudlet(hotel_reservation()))
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
    // way; the ratio tracks the threading win on this machine): after a
    // spin wakes every worker's vCPU, SWEEP_PAIRS alternating pairs, so
    // host load hits both sides of a pair alike.
    profiler.start("sweep");
    let sweep_points: Vec<f64> = (1..=8).map(|i| f64::from(i) * 600.0).collect();
    let sweep = SweepConfig::new(sweep_points.clone(), 2.0, 0.5).request_type(SN_COMPOSE_POST);
    let serial_sweep = sweep.clone().parallelism(1);
    let sweep_workers = sweep.effective_workers();
    profiler.time("spin", || spin(sweep_workers, SWEEP_SPIN));
    let mut reference = None;
    let mut pairs = Vec::with_capacity(SWEEP_PAIRS);
    for _ in 0..SWEEP_PAIRS {
        let mut timed = |label: &str, config: &SweepConfig| {
            profiler.start(label);
            let curve = config.run("phones", &social).expect("sweep runs");
            let ms = profiler.stop();
            let serial = reference.get_or_insert_with(|| curve.clone());
            assert_eq!(
                *serial, curve,
                "threaded sweeps must be point-identical to serial ones"
            );
            ms
        };
        pairs.push((timed("serial", &serial_sweep), timed("threaded", &sweep)));
    }
    let sweep_curve = reference.expect("at least one sweep pair");
    let sweep_serial_ms = median(pairs.iter().map(|&(serial, _)| serial).collect());
    let sweep_threaded_ms = median(pairs.iter().map(|&(_, threaded)| threaded).collect());
    let sweep_speedup = median(
        pairs
            .iter()
            .map(|&(serial, threaded)| serial / threaded)
            .collect(),
    );
    // The same sweep once more with the recorder attached: tracing must
    // not move a single point.
    let mut sweep_recorder = TraceRecorder::new();
    let traced_curve = profiler.time("traced", || {
        sweep
            .run_with("phones", &social, &mut sweep_recorder)
            .expect("traced sweep runs")
    });
    assert_eq!(
        traced_curve, sweep_curve,
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
    // The fleet row counts (window, site) cells across both policies; the
    // result's own cells are per (year, site).
    let fleet_windows = fleet.baseline().window_health().len();
    let fleet_sites = fleet.baseline().site_names().len();
    let fleet_cells = fleet_windows * fleet_sites * 2;

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
    let _ = write!(
        json,
        "{{\n  \"bench\": \"microsim_engine\",\n  \"host\": {{\"nproc\": {nproc}, \
         \"spin_ms\": {spin_ms:.3}}},\n  \"scenarios\": [\n"
    );
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
        "  ],\n  \"sweep\": {{\"points\": {}, \"workers\": {}, \"pairs\": {}, \
         \"wall_ms_serial\": {:.3}, \"wall_ms_threaded\": {:.3}, \"speedup\": {:.4}}},",
        sweep_points.len(),
        sweep_workers,
        SWEEP_PAIRS,
        sweep_serial_ms,
        sweep_threaded_ms,
        sweep_speedup,
    );
    let _ = writeln!(
        json,
        "  \"fleet\": {{\"windows\": {}, \"sites\": {}, \"cells\": {}, \"wall_ms\": {:.3}, \
         \"static_mg_per_request\": {:.6}, \"carbon_aware_mg_per_request\": {:.6}}},",
        fleet_windows,
        fleet_sites,
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
         \"cache_misses\": {}, \"cache_hit_rate\": {:.6}, \"slices_measured\": {}, \
         \"frontier_size\": {}, \"best_mg_per_request\": {:.6}, \
         \"baseline_mg_per_request\": {:.6}, \"improvement_percent\": {:.4}}},",
        planner_wall_ms,
        planner_outcome.candidates_enumerated(),
        planner_outcome.screened_out(),
        planner_outcome.fresh_evaluations(),
        planner_outcome.cache_hits(),
        planner_outcome.cache_misses(),
        planner_outcome.cache_hit_rate(),
        planner_outcome.slices_measured(),
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
    println!("  host: {nproc} CPUs, {HOST_SPIN_ITERATIONS}-round spin in {spin_ms:.1} ms\n");
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
        "\n  sweep ({} points, {} workers, median of {} pairs): serial {:.1} ms, \
         threaded {:.1} ms ({:.2}x)",
        sweep_points.len(),
        sweep_workers,
        SWEEP_PAIRS,
        sweep_serial_ms,
        sweep_threaded_ms,
        sweep_speedup,
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

    println!("\nPerformance floor:\n");
    let rates: Vec<f64> = scenarios.iter().map(|s| s.events_per_sec).collect();
    let checks = floor_checks(&rates, sweep_workers, sweep_speedup);
    for (_, line) in &checks {
        println!("  {line}");
    }
    let failures = checks.iter().filter(|(ok, _)| !ok).count();
    if failures > 0 {
        println!("\n{failures} floor check(s) FAILED");
        return ExitCode::FAILURE;
    }
    println!("\nall floor checks passed");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passed(checks: &[(bool, String)]) -> Vec<bool> {
        checks.iter().map(|(ok, _)| *ok).collect()
    }

    #[test]
    fn a_rate_below_the_floor_fails() {
        let checks = floor_checks(&[2_500_000.0, 2_499_999.0], 1, 1.0);
        assert_eq!(passed(&checks), [true, false, true]);
        assert!(checks[1].1.ends_with("FAIL"), "{}", checks[1].1);
    }

    #[test]
    fn a_slow_sweep_fails_at_two_workers() {
        assert_eq!(passed(&floor_checks(&[3e6], 2, 1.49)), [true, false]);
        assert_eq!(passed(&floor_checks(&[3e6], 2, 1.5)), [true, true]);
    }

    #[test]
    fn the_sweep_check_is_skipped_at_one_worker() {
        let checks = floor_checks(&[3e6], 1, 0.9);
        assert_eq!(passed(&checks), [true, true]);
        assert!(checks[1].1.contains("skipped"), "{}", checks[1].1);
    }
}
