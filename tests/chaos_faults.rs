//! Chaos differential harness: random correlated fault plans thrown at
//! the lifecycle's failure-aware serving path.
//!
//! Three invariants survive arbitrary fault configurations:
//!
//! 1. **Conservation** — everything the schedule offered lands in exactly
//!    one bucket: served + declined + queue-dropped + low-priority shed +
//!    failed.
//! 2. **Determinism** — a faulty run is bit-identical serial or threaded
//!    (the fault plan, health view and resolutions are all serial-pass
//!    artifacts fanned into pre-assigned slots).
//! 3. **Fault-free identity** — with every fault process disabled, the
//!    full resilience machinery produces results bit-identical to a run
//!    that never constructed it; and with a truthful health view
//!    (zero detection lag) nothing ever fails, because the router never
//!    assigns traffic to capacity that is not there.
//! 4. **Shared slices change nothing** — fleets run one after another
//!    through one [`MeasuredSlices`] table each reproduce their
//!    standalone run bit for bit, and a fleet whose site simulation
//!    differs reuses none of the table's slices.
//!
//! The vendored proptest seeds its RNG from the test name, so this is a
//! fixed-seed suite: every CI run exercises the same fault plans.

use junkyard::carbon::units::{CarbonIntensity, GramsCo2e, TimeSpan, Watts};
use junkyard::devices::battery::BatterySpec;
use junkyard::fleet::faults::{
    DegradationLadder, FaultConfig, FaultPlan, ResiliencePolicy, RetryPolicy,
};
use junkyard::fleet::lifecycle::{
    CohortDevice, LifecycleConfig, LifecycleResult, LifecycleSim, LifecycleSite, MeasuredSlices,
};
use junkyard::fleet::routing::RoutingPolicy;
use junkyard::fleet::schedule::DiurnalSchedule;
use junkyard::fleet::site::GridRegion;
use junkyard::grid::synth::CaisoSynthesizer;
use junkyard::grid::trace::IntensityTrace;
use junkyard::microsim::app::hotel_reservation;
use junkyard::microsim::network::NetworkModel;
use junkyard::microsim::node::NodeSpec;
use junkyard::microsim::placement::Placement;
use junkyard::microsim::sim::Simulation;
use proptest::prelude::*;

/// A small simulation of `phones` Pixel 3A nodes; two keep each proptest
/// case fast.
fn phone_sim(phones: usize) -> Simulation {
    let app = hotel_reservation();
    let nodes: Vec<NodeSpec> = (0..phones).map(NodeSpec::pixel_3a).collect();
    let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
    Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap()
}

fn phone_slot(capacity: f64) -> CohortDevice {
    CohortDevice::new(
        "Pixel 3A",
        Watts::new(1.7),
        BatterySpec::pixel_3a(),
        GramsCo2e::from_kilograms(5.5),
        capacity,
    )
    .power(Watts::new(0.8), Watts::new(1.7))
}

fn cohort_site(seed: u64, sim: &Simulation) -> LifecycleSite {
    let trace = CaisoSynthesizer::new(seed, 2)
        .step(TimeSpan::from_hours(1.0))
        .intensity_trace();
    LifecycleSite::cohort(
        "cloudlet",
        sim,
        GridRegion::new("caiso", trace),
        vec![phone_slot(400.0), phone_slot(400.0)],
        GramsCo2e::from_kilograms(15.0),
    )
    .overhead_power(Watts::new(2.0))
    .failures(300.0, 4)
    .unwrap()
}

fn leased_site(capacity: f64, sim: &Simulation) -> LifecycleSite {
    let trace = IntensityTrace::constant(
        CarbonIntensity::from_grams_per_kwh(420.0),
        TimeSpan::from_hours(1.0),
        TimeSpan::from_days(1.0),
    );
    LifecycleSite::leased("datacenter", sim, GridRegion::new("gas", trace), capacity)
        .power(Watts::new(50.0), Watts::new(40.0))
        .embodied(GramsCo2e::from_kilograms(500.0), TimeSpan::from_years(4.0))
}

/// A random-but-bounded fault configuration: every process enabled with
/// rates aggressive enough to strike within the short horizon.
fn fault_config(
    outage_mean: f64,
    firmware_mean: f64,
    firmware_fraction: f64,
    thermal_mean: f64,
) -> FaultConfig {
    FaultConfig::disabled()
        .grid_outages(outage_mean, 2)
        .firmware_batches(firmware_mean, firmware_fraction, 3)
        .thermal_shutdowns(thermal_mean, 1)
}

fn build(
    seed: u64,
    base_qps: f64,
    workers: usize,
    faults: Option<FaultConfig>,
    policy: Option<ResiliencePolicy>,
) -> LifecycleResult {
    fleet(seed, base_qps, workers, faults, policy, 2)
        .run()
        .unwrap()
}

/// A cloudlet plus a leased fallback, both serving from a `phones`-node
/// simulation.
fn fleet(
    seed: u64,
    base_qps: f64,
    workers: usize,
    faults: Option<FaultConfig>,
    policy: Option<ResiliencePolicy>,
    phones: usize,
) -> LifecycleSim {
    let site_sim = phone_sim(phones);
    let mut sim = LifecycleSim::new(
        vec![cohort_site(seed, &site_sim), leased_site(400.0, &site_sim)],
        DiurnalSchedule::office_day(base_qps),
        RoutingPolicy::carbon_aware(),
        LifecycleConfig::new(1)
            .horizon_days(25)
            .windows_per_day(2)
            .sim_slice_s(1.0)
            .warmup_s(0.0)
            .seed(seed)
            .parallelism(workers),
    );
    if let Some(config) = faults {
        sim = sim.with_faults(config);
    }
    if let Some(policy) = policy {
        sim = sim.with_resilience(policy);
    }
    sim
}

/// The conserved-buckets identity, relative tolerance 1e-6 (panics on
/// violation, which proptest reports as a failing case).
fn assert_conserved(result: &LifecycleResult) {
    let offered: f64 = result
        .window_health()
        .iter()
        .map(|h| h.offered())
        .sum::<f64>()
        + result.router_declined_requests();
    let accounted = result.offered_requests();
    assert!(
        (offered - accounted).abs() <= 1e-6 * offered.max(1.0),
        "conservation violated: offered {offered} vs accounted {accounted} \
         (served {}, declined {}, dropped {}, lp-shed {}, failed {})",
        result.total_requests(),
        result.router_declined_requests(),
        result.queue_dropped_requests(),
        result.low_priority_shed_requests(),
        result.failed_requests(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Conservation and worker-count determinism hold under arbitrary
    /// fault plans and the full retry/hedge/degradation stack.
    #[test]
    fn chaos_conservation_and_determinism(
        seed in 0u64..1_000,
        base_qps in 300.0f64..900.0,
        outage_mean in 3.0f64..20.0,
        firmware_mean in 3.0f64..20.0,
        firmware_fraction in 0.2f64..0.9,
        thermal_mean in 3.0f64..20.0,
        lag in 0usize..3,
        retries in 1usize..4,
        lp_fraction in 0.0f64..1.0,
        workers in 2usize..7,
    ) {
        let faults = fault_config(outage_mean, firmware_mean, firmware_fraction, thermal_mean);
        let policy = ResiliencePolicy::new()
            .detection_lag_windows(lag)
            .retry(RetryPolicy::new(retries).hedge_to_fallback())
            .degradation(
                DegradationLadder::new()
                    .shed_low_priority(lp_fraction)
                    .brownout(1.2),
            )
            .fallback_site(1);
        let serial = build(seed, base_qps, 1, Some(faults), Some(policy));
        assert_conserved(&serial);
        // Availability bookkeeping is internally consistent.
        prop_assert!((0.0..=1.0).contains(&serial.availability()));
        for rate in serial.window_success_rates() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&rate), "success rate {rate}");
        }
        if serial.failed_requests() > 0.0 {
            prop_assert!(serial.availability() < 1.0);
        }
        // Differential: the same chaos, threaded, is bit-identical.
        let threaded = build(seed, base_qps, workers, Some(faults), Some(policy));
        prop_assert_eq!(serial, threaded);
    }

    /// Fault-free identity: disabled fault processes plus the whole
    /// resilience stack (minus a fallback, which re-routes planning)
    /// produce bit-identical results to a plain run — and a truthful
    /// health view never fails a request even under real faults.
    #[test]
    fn chaos_fault_free_identity_and_omniscient_router(
        seed in 0u64..1_000,
        base_qps in 300.0f64..900.0,
        outage_mean in 3.0f64..20.0,
        lag in 1usize..3,
        retries in 1usize..4,
    ) {
        let baseline = build(seed, base_qps, 1, None, None);
        let disabled = build(
            seed,
            base_qps,
            1,
            Some(FaultConfig::disabled()),
            Some(
                ResiliencePolicy::new()
                    .detection_lag_windows(lag)
                    .retry(RetryPolicy::new(retries)),
            ),
        );
        prop_assert_eq!(&baseline, &disabled);
        prop_assert_eq!(baseline.failed_requests(), 0.0);
        assert_conserved(&baseline);

        // Real outages, omniscient router: nothing fails because nothing
        // is ever assigned to dead capacity.
        let omniscient = build(
            seed,
            base_qps,
            1,
            Some(FaultConfig::disabled().grid_outages(outage_mean, 2)),
            Some(ResiliencePolicy::new().detection_lag_windows(0)),
        );
        prop_assert_eq!(omniscient.failed_requests(), 0.0);
        assert_conserved(&omniscient);
    }

    /// Fleets run one after another through one shared slice table: a
    /// fault-free fleet, then a faulty one over the same sites, then one
    /// whose site simulation has one more phone. Each reproduces its
    /// standalone run bit for bit, and the third fleet reuses nothing:
    /// the table grows by exactly its standalone slice count.
    #[test]
    fn shared_slices_reproduce_standalone_runs(
        seed in 0u64..1_000,
        base_qps in 300.0f64..900.0,
        outage_mean in 3.0f64..20.0,
        firmware_mean in 3.0f64..20.0,
        lag in 0usize..3,
        workers in 1usize..5,
    ) {
        let faults = fault_config(outage_mean, firmware_mean, 0.5, 10.0);
        let policy = ResiliencePolicy::new()
            .detection_lag_windows(lag)
            .retry(RetryPolicy::new(2).hedge_to_fallback())
            .fallback_site(1);
        let fleets = [
            fleet(seed, base_qps, workers, None, None, 2),
            fleet(seed, base_qps, workers, Some(faults), Some(policy), 2),
        ];
        let mut shared = MeasuredSlices::new();
        for sim in &fleets {
            let result = sim.run_shared(&mut shared).unwrap();
            prop_assert_eq!(result, sim.run().unwrap());
        }

        let bigger = fleet(seed, base_qps, workers, None, None, 3);
        let mut own = MeasuredSlices::new();
        let standalone = bigger.run_shared(&mut own).unwrap();
        let before = shared.len();
        prop_assert_eq!(bigger.run_shared(&mut shared).unwrap(), standalone);
        prop_assert!(!own.is_empty());
        prop_assert_eq!(shared.len(), before + own.len());
    }
}

/// The deterministic fault plan itself: bit-identical across calls,
/// different under a different seed, and window-availability consistent
/// with its own event list.
#[test]
fn fault_plans_are_reproducible() {
    let config = FaultConfig::disabled()
        .grid_outages(4.0, 2)
        .firmware_batches(3.0, 0.5, 2);
    let a = FaultPlan::generate(&config, 120, 2, 4, 9);
    let b = FaultPlan::generate(&config, 120, 2, 4, 9);
    assert_eq!(a, b);
    assert_ne!(a, FaultPlan::generate(&config, 120, 2, 4, 10));
    assert!(!a.is_fault_free());
    for event in a.events() {
        assert!(a.availability(event.start_window(), event.site()) < 1.0);
    }
}
