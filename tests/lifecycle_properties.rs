//! Property tests on the lifecycle layer: the multi-year accounting is
//! conservative (per-(year, site) cells sum to the lifetime totals and to
//! the per-day ledger), a shorter horizon is a bit-identical prefix of a
//! longer one, and the slot-threaded slice fan-out is deterministic at
//! any worker count.

use junkyard::battery::state::BatteryState;
use junkyard::carbon::units::{CarbonIntensity, GramsCo2e, TimeSpan, Watts};
use junkyard::devices::battery::BatterySpec;
use junkyard::fleet::faults::{FaultConfig, ResiliencePolicy, RetryPolicy};
use junkyard::fleet::lifecycle::{
    CohortDevice, LifecycleConfig, LifecycleSim, LifecycleSite, DAYS_PER_YEAR,
};
use junkyard::fleet::routing::RoutingPolicy;
use junkyard::fleet::schedule::DiurnalSchedule;
use junkyard::fleet::site::{FleetSite, GridRegion};
use junkyard::grid::synth::CaisoSynthesizer;
use junkyard::grid::trace::IntensityTrace;
use junkyard::microsim::app::hotel_reservation;
use junkyard::microsim::network::NetworkModel;
use junkyard::microsim::node::NodeSpec;
use junkyard::microsim::placement::Placement;
use junkyard::microsim::sim::Simulation;
use proptest::prelude::*;

/// A small two-phone simulation, cheap enough to run inside proptest.
fn tiny_sim() -> Simulation {
    let app = hotel_reservation();
    let nodes = vec![NodeSpec::pixel_3a(0), NodeSpec::pixel_3a(1)];
    let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
    Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap()
}

fn phone_slot(capacity: f64) -> CohortDevice {
    CohortDevice::new(
        Watts::new(1.7),
        BatterySpec::pixel_3a(),
        GramsCo2e::from_kilograms(5.5),
        capacity,
    )
    .power(Watts::new(0.8), Watts::new(1.7))
}

fn cohort_site(seed: u64, devices: usize, capacity: f64) -> LifecycleSite {
    // An hourly two-day diurnal trace keeps each proptest case fast.
    let trace = CaisoSynthesizer::new(seed, 2)
        .step(TimeSpan::from_hours(1.0))
        .intensity_trace();
    LifecycleSite::try_cohort(
        "cloudlet",
        &tiny_sim(),
        GridRegion::new("caiso", trace),
        (0..devices).map(|_| phone_slot(capacity)).collect(),
        GramsCo2e::from_kilograms(15.0),
    )
    .expect("the test cohort is valid")
    .overhead_power(Watts::new(2.0))
    .failures(300.0, 4)
    .unwrap()
}

fn leased_site(capacity: f64) -> LifecycleSite {
    let trace = IntensityTrace::constant(
        CarbonIntensity::from_grams_per_kwh(420.0),
        TimeSpan::from_hours(1.0),
        TimeSpan::from_days(1.0),
    );
    LifecycleSite::try_leased(
        FleetSite::new(
            "datacenter",
            &tiny_sim(),
            GridRegion::new("gas", trace),
            capacity,
        )
        .power(Watts::new(50.0), Watts::new(40.0))
        .embodied(GramsCo2e::from_kilograms(500.0), TimeSpan::from_years(4.0)),
    )
    .expect("the test capacity is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Per-(year, site) cells sum to the lifetime totals within 1e-9
    /// (relative), and the merged per-day ledger agrees with both.
    #[test]
    fn lifecycle_cells_sum_to_lifetime_totals(
        base_qps in 50.0f64..700.0,
        seed in 0u64..1_000,
        years in 1usize..3,
        carbon_aware in 0u8..2,
    ) {
        let policy = if carbon_aware == 1 {
            RoutingPolicy::CarbonAware
        } else {
            RoutingPolicy::Static
        };
        let sim = LifecycleSim::new(
            vec![cohort_site(seed, 2, 400.0), leased_site(300.0)],
            DiurnalSchedule::office_day(base_qps),
            policy,
            LifecycleConfig::years(years)
                .windows_per_day(2)
                .sim_slice_s(1.0)
                .warmup_s(0.0)
                .seed(seed),
        );
        let result = sim.run().unwrap();
        prop_assert_eq!(result.cells().len(), years * 2);
        prop_assert_eq!(result.day_ledger().len(), years * DAYS_PER_YEAR);

        // Cells -> totals, associating per site first, then across sites
        // (a different order than the engine's running accumulation).
        let mut requests = 0.0;
        let mut operational = 0.0;
        let mut embodied = 0.0;
        for site in 0..2 {
            let mut site_requests = 0.0;
            let mut site_operational = 0.0;
            let mut site_embodied = 0.0;
            for year in 0..years {
                let cell = result.cell(year, site);
                site_requests += cell.requests();
                site_operational += cell.operational().grams();
                site_embodied += cell.embodied().grams();
            }
            requests += site_requests;
            operational += site_operational;
            embodied += site_embodied;
        }
        let tol = |reference: f64| 1e-9f64.max(reference.abs() * 1e-9);
        // Each year's cells reproduce that year's days of the merged
        // ledger.
        for year in 0..years {
            let cells: f64 = (0..2).map(|site| result.cell(year, site).requests()).sum();
            let days = &result.day_ledger()[year * DAYS_PER_YEAR..(year + 1) * DAYS_PER_YEAR];
            let ledger: f64 = days.iter().map(|d| d.requests()).sum();
            prop_assert!((ledger - cells).abs() <= tol(cells));
        }
        prop_assert!((requests - result.total_requests()).abs() <= tol(result.total_requests()));
        prop_assert!(
            (operational - result.total_operational().grams()).abs()
                <= tol(result.total_operational().grams())
        );
        prop_assert!(
            (embodied - result.total_embodied().grams()).abs()
                <= tol(result.total_embodied().grams())
        );

        // The merged day ledger carries the same lifetime totals.
        let ledger_requests: f64 = result.day_ledger().iter().map(|d| d.requests()).sum();
        let ledger_carbon: f64 = result.day_ledger().iter().map(|d| d.carbon().grams()).sum();
        prop_assert!((ledger_requests - result.total_requests()).abs()
            <= tol(result.total_requests()));
        prop_assert!((ledger_carbon - result.total_carbon().grams()).abs()
            <= tol(result.total_carbon().grams()));
    }

    /// A shorter horizon is a prefix of a longer one: the `d`-day run's
    /// day ledger and window health equal the first `d` days and
    /// `d × windows_per_day` windows of the `D`-day run, bit for bit,
    /// fault-free and under lagged, retried faults. So the window-major
    /// plan is indexed by window alone, never by the horizon, across a
    /// year boundary too.
    #[test]
    fn a_shorter_horizon_is_a_bit_identical_prefix(
        seed in 0u64..1_000,
        short_days in 1usize..365,
        extra_days in 1usize..400,
    ) {
        let long_days = short_days + extra_days;
        let run = |days: usize, faulty: bool| {
            let sim = LifecycleSim::new(
                vec![cohort_site(seed, 2, 400.0), leased_site(300.0)],
                DiurnalSchedule::office_day(600.0),
                RoutingPolicy::CarbonAware,
                LifecycleConfig::days(days)
                    .windows_per_day(2)
                    .sim_slice_s(1.0)
                    .warmup_s(0.0)
                    .seed(seed),
            );
            let sim = if faulty {
                sim.with_faults(
                    FaultConfig::disabled()
                        .grid_outages(8.0, 2)
                        .firmware_batches(6.0, 0.5, 3),
                )
                .with_resilience(
                    ResiliencePolicy::new()
                        .detection_lag_windows(2)
                        .retry(RetryPolicy::new(2)),
                )
            } else {
                sim
            };
            sim.run().unwrap()
        };
        for faulty in [false, true] {
            let (short, long) = (run(short_days, faulty), run(long_days, faulty));
            prop_assert_eq!(short.day_ledger(), &long.day_ledger()[..short_days]);
            prop_assert_eq!(
                short.window_health(),
                &long.window_health()[..short_days * 2]
            );
        }
    }

    /// Serial and threaded lifecycle runs are bit-identical — for a
    /// two-site, two-year fleet and for a single-site, single-year one,
    /// whose one cell still fans its slices across every worker.
    #[test]
    fn lifecycle_runs_are_identical_across_worker_counts(
        base_qps in 50.0f64..700.0,
        seed in 0u64..1_000,
        workers in 2usize..9,
    ) {
        let run = |sites: Vec<LifecycleSite>, years: usize, parallelism: usize| {
            LifecycleSim::new(
                sites,
                DiurnalSchedule::office_day(base_qps),
                RoutingPolicy::CarbonAware,
                LifecycleConfig::years(years)
                    .windows_per_day(2)
                    .sim_slice_s(1.0)
                    .warmup_s(0.0)
                    .seed(seed)
                    .parallelism(parallelism),
            )
            .run()
            .unwrap()
        };
        let two_sites = || vec![cohort_site(seed, 2, 400.0), leased_site(300.0)];
        prop_assert_eq!(run(two_sites(), 2, 1), run(two_sites(), 2, workers));
        let one_cell = || vec![cohort_site(seed, 2, 400.0)];
        let single = run(one_cell(), 1, 1);
        prop_assert_eq!(single.cells().len(), 1);
        prop_assert_eq!(single, run(one_cell(), 1, workers));
    }
}

/// Battery wear in the lifecycle is the same state machine the Figure 4
/// smart-charging simulation steps: a device that cycles its pack a full
/// cycle-life's worth is worn out and replaced, and the replacement is
/// what the lifecycle charges for.
#[test]
fn lifecycle_battery_replacements_track_wear() {
    let mut battery = BatteryState::new_full(BatterySpec::pixel_3a());
    let full = battery.spec().energy().value();
    for _ in 0..2_500 {
        let _ = battery.discharge(Watts::new(full), TimeSpan::from_secs(1.0));
        let _ = battery.charge_from_wall(TimeSpan::from_hours(1.0));
    }
    assert!(battery.is_worn_out());
    battery.replace();
    assert_eq!(battery.replacements(), 1);
    assert!(battery.replacement_carbon().grams() > 0.0);
}
