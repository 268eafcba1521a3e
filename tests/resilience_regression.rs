//! Golden regression pins for the fault-free serving path.
//!
//! The lifecycle has a failure-aware serving path (fault plans, health
//! views, retries, degradation). With faults disabled that machinery must
//! be completely invisible: these tests pin the exact bit patterns a
//! fixed fault-free scenario produced *before* the fault layer existed,
//! so any accidental perturbation of the default path — a reordered float
//! expression, a changed memo key, a scaled idle-power term — fails
//! loudly rather than drifting the paper's numbers.

use junkyard::carbon::units::{CarbonIntensity, GramsCo2e, TimeSpan, Watts};
use junkyard::devices::battery::BatterySpec;
use junkyard::fleet::lifecycle::{
    CohortDevice, LifecycleConfig, LifecycleResult, LifecycleSim, LifecycleSite,
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

fn tiny_sim() -> Simulation {
    let app = hotel_reservation();
    let nodes = vec![NodeSpec::pixel_3a(0), NodeSpec::pixel_3a(1)];
    let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
    Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap()
}

fn flat_region(grams: f64) -> GridRegion {
    GridRegion::new(
        "flat",
        IntensityTrace::constant(
            CarbonIntensity::from_grams_per_kwh(grams),
            TimeSpan::from_hours(1.0),
            TimeSpan::from_days(1.0),
        ),
    )
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

fn cohort_site() -> LifecycleSite {
    let trace = CaisoSynthesizer::new(7, 2)
        .step(TimeSpan::from_hours(1.0))
        .intensity_trace();
    LifecycleSite::try_cohort(
        "cloudlet",
        &tiny_sim(),
        GridRegion::new("caiso", trace),
        vec![phone_slot(400.0), phone_slot(400.0)],
        GramsCo2e::from_kilograms(15.0),
    )
    .expect("the test cohort is valid")
    .overhead_power(Watts::new(2.0))
    .failures(300.0, 4)
    .unwrap()
}

fn leased_site() -> LifecycleSite {
    LifecycleSite::try_leased(
        FleetSite::new("datacenter", &tiny_sim(), flat_region(420.0), 300.0)
            .power(Watts::new(50.0), Watts::new(40.0))
            .embodied(GramsCo2e::from_kilograms(500.0), TimeSpan::from_years(4.0)),
    )
    .expect("the test capacity is valid")
}

/// The pinned fault-free lifecycle scenario: a two-phone cohort plus a
/// leased backend, 40 days, two windows per day, carbon-aware routing.
fn lifecycle_scenario() -> LifecycleResult {
    LifecycleSim::new(
        vec![cohort_site(), leased_site()],
        DiurnalSchedule::office_day(500.0),
        RoutingPolicy::CarbonAware,
        LifecycleConfig::days(40)
            .windows_per_day(2)
            .sim_slice_s(1.0)
            .warmup_s(0.0)
            .seed(42),
    )
    .run()
    .unwrap()
}

/// The exact bit patterns the scenario produced before the fault layer
/// existed (release profile).
const LIFECYCLE_REQUESTS_BITS: u64 = 0x41d1_a361_7fff_ffff;
const LIFECYCLE_OPERATIONAL_BITS: u64 = 0x40d4_afbd_afce_4dac;
const LIFECYCLE_EMBODIED_BITS: u64 = 0x40e0_b1a8_203d_ada6;
const LIFECYCLE_WORST_MEDIAN_BITS: u64 = 0x4040_e68e_2427_82ad;
const LIFECYCLE_WORST_TAIL_BITS: u64 = 0x4040_e784_eedd_9b0b;
const LIFECYCLE_WORST_P99_BITS: u64 = 0x4040_eac6_3df7_f030;

#[test]
fn fault_free_lifecycle_is_bit_identical_to_pre_fault_layer_outputs() {
    let l = lifecycle_scenario();
    assert_eq!(l.total_requests().to_bits(), LIFECYCLE_REQUESTS_BITS);
    assert_eq!(
        l.total_operational().grams().to_bits(),
        LIFECYCLE_OPERATIONAL_BITS
    );
    assert_eq!(
        l.total_embodied().grams().to_bits(),
        LIFECYCLE_EMBODIED_BITS
    );
    assert_eq!(l.router_declined_requests().to_bits(), 0);
    assert_eq!(l.queue_dropped_requests().to_bits(), 0);
    assert_eq!(l.worst_median_ms().to_bits(), LIFECYCLE_WORST_MEDIAN_BITS);
    assert_eq!(l.worst_tail_ms().to_bits(), LIFECYCLE_WORST_TAIL_BITS);
    assert_eq!(l.worst_p99_ms().to_bits(), LIFECYCLE_WORST_P99_BITS);
    // The new availability accounting must be inert on a fault-free run.
    assert_eq!(l.failed_requests(), 0.0);
    assert_eq!(l.low_priority_shed_requests(), 0.0);
    assert_eq!(l.total_retry_carbon().grams(), 0.0);
    assert_eq!(l.availability(), 1.0);
    assert_eq!(l.downtime_windows(1.0), 0);
    // total_carbon now folds in the (zero) retry carbon — still exact.
    assert_eq!(
        l.total_carbon().grams().to_bits(),
        (f64::from_bits(LIFECYCLE_OPERATIONAL_BITS) + f64::from_bits(LIFECYCLE_EMBODIED_BITS))
            .to_bits()
    );
}

#[test]
fn disabled_fault_machinery_is_bit_identical_too() {
    use junkyard::fleet::faults::{FaultConfig, ResiliencePolicy, RetryPolicy};
    let baseline = lifecycle_scenario();
    let with_disabled_faults = LifecycleSim::new(
        vec![cohort_site(), leased_site()],
        DiurnalSchedule::office_day(500.0),
        RoutingPolicy::CarbonAware,
        LifecycleConfig::days(40)
            .windows_per_day(2)
            .sim_slice_s(1.0)
            .warmup_s(0.0)
            .seed(42),
    )
    .with_faults(FaultConfig::disabled())
    .with_resilience(
        ResiliencePolicy::new()
            .detection_lag_windows(3)
            .retry(RetryPolicy::new(2)),
    )
    .run()
    .unwrap();
    assert_eq!(baseline, with_disabled_faults);
}
