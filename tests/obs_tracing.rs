//! Property and regression tests for the observability layer's two core
//! contracts:
//!
//! * **Tracing is free and invisible.** Attaching a recorder never
//!   changes a result: a [`junkyard::obs::NoopRecorder`] run (the plain
//!   `run()` path) is bit-identical to a [`junkyard::obs::TraceRecorder`]
//!   run over the same inputs, for the compiled microsim and the
//!   lifecycle stack alike.
//! * **Traces are worker-count invariant.** The sweep's shard-merged
//!   trace serialises to byte-identical JSONL whether the points ran
//!   serially or fanned out over 2 or 8 workers.
//!
//! Plus the dynamic side of the conservation contract: the
//! [`junkyard::obs::ConservedLedger`] accepts every balanced
//! decomposition and rejects every leak beyond tolerance.

use junkyard::core::resilience_study::ResilienceStudy;
use junkyard::microsim::app::{social_network, SN_COMPOSE_POST};
use junkyard::microsim::network::NetworkModel;
use junkyard::microsim::node::ten_pixel_cloudlet;
use junkyard::microsim::placement::Placement;
use junkyard::microsim::sim::{Simulation, Workload};
use junkyard::microsim::sweep::SweepConfig;
use junkyard::obs::{ConservedLedger, EventKind, LedgerError, TraceRecorder};
use proptest::prelude::*;

fn phone_sim() -> Simulation {
    let app = social_network();
    let nodes = ten_pixel_cloudlet();
    let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
    Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap()
}

#[test]
fn compiled_run_is_bit_identical_with_and_without_recorder() {
    let compiled = phone_sim().compile();
    let workload = Workload::steady(1_500.0, 2.0, Some(SN_COMPOSE_POST), 42);

    let plain = compiled.run(&workload).unwrap();
    let mut recorder = TraceRecorder::new();
    let traced = compiled.run_with(&workload, &mut recorder).unwrap();

    assert_eq!(plain, traced, "attaching a recorder changed the metrics");
    // And the recorder actually saw the run: every admission plus every
    // completion of the workload, on the simulated-time axis.
    let counts = recorder.counts();
    assert_eq!(
        counts[EventKind::Admit.index()],
        u64::try_from(plain.offered()).unwrap()
    );
    assert!(counts[EventKind::Complete.index()] > 0);
}

#[test]
fn lifecycle_run_is_bit_identical_with_and_without_recorder() {
    // The richest run the stack expresses: correlated faults, retries,
    // hedging and a degradation ladder, all feeding the recorder.
    let sim = ResilienceStudy::quick()
        .mitigated_fleet()
        .expect("the quick fleet builds");
    let plain = sim.run().unwrap();
    let mut recorder = TraceRecorder::new();
    let traced = sim.run_with(&mut recorder).unwrap();

    assert_eq!(plain, traced, "attaching a recorder changed the result");
    let counts = recorder.counts();
    assert!(counts[EventKind::Route.index()] > 0, "no routing recorded");
    assert!(counts[EventKind::Fault.index()] > 0, "no faults recorded");
    // The self-checking ledger closed: a `ledger` event keyed
    // `violation` would mean a conservation identity broke mid-run.
    let violations = recorder
        .events_in_order()
        .filter(|(_, e)| e.kind == EventKind::Ledger && e.key == "violation")
        .count();
    assert_eq!(violations, 0, "the conservation ledger must close");
}

#[test]
fn sweep_trace_is_byte_identical_at_any_worker_count() {
    let compiled = phone_sim().compile();
    let points = vec![400.0, 800.0, 1_200.0, 1_600.0, 2_000.0];

    let mut traces = Vec::new();
    let mut curves = Vec::new();
    for workers in [1usize, 2, 8] {
        let config = SweepConfig::new(points.clone(), 1.5, 0.5)
            .request_type(SN_COMPOSE_POST)
            .parallelism(workers);
        let mut recorder = TraceRecorder::new();
        let curve = config
            .run_compiled_traced("phones", &compiled, &mut recorder)
            .unwrap();
        traces.push(recorder.to_jsonl());
        curves.push(curve);
    }

    assert_eq!(traces[0], traces[1], "2-worker trace differs from serial");
    assert_eq!(traces[0], traces[2], "8-worker trace differs from serial");
    assert_eq!(curves[0], curves[1]);
    assert_eq!(curves[0], curves[2]);

    // The traced curve equals the untraced one, too.
    let untraced = SweepConfig::new(points, 1.5, 0.5)
        .request_type(SN_COMPOSE_POST)
        .parallelism(1)
        .run_compiled("phones", &compiled)
        .unwrap();
    assert_eq!(curves[0], untraced);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any steady workload, the traced compiled run is bit-identical
    /// to the plain (noop-recorder) run.
    #[test]
    fn traced_compiled_runs_match_plain_runs(
        qps in 200.0f64..3_000.0,
        seed in 0u64..1_000,
    ) {
        let compiled = phone_sim().compile();
        let workload = Workload::steady(qps, 1.5, Some(SN_COMPOSE_POST), seed);
        let plain = compiled.run(&workload).unwrap();
        let mut recorder = TraceRecorder::new();
        let traced = compiled.run_with(&workload, &mut recorder).unwrap();
        prop_assert_eq!(&plain, &traced);
        prop_assert_eq!(
            recorder.counts()[EventKind::Admit.index()],
            u64::try_from(plain.offered()).unwrap()
        );
    }

    /// Every balanced request decomposition is accepted; perturbing one
    /// leg beyond the tolerance is rejected, and rejected records never
    /// accumulate.
    #[test]
    fn ledger_accepts_balanced_and_rejects_leaky_decompositions(
        served in 0.0f64..1.0e6,
        declined in 0.0f64..1.0e4,
        dropped in 0.0f64..1.0e4,
        shed in 0.0f64..1.0e4,
        failed in 0.0f64..1.0e4,
        leak in 1.0f64..1.0e4,
    ) {
        let offered = served + declined + dropped + shed + failed;
        let mut ledger = ConservedLedger::new();
        ledger
            .record_requests(offered, served, declined, dropped, shed, failed)
            .expect("a balanced decomposition is accepted");
        prop_assert_eq!(ledger.offered(), offered);

        // Leak whole requests off the served leg: rejected, totals
        // untouched.
        let mut broken = ConservedLedger::new();
        let err = broken
            .record_requests(offered + leak, served, declined, dropped, shed, failed)
            .expect_err("a leak beyond tolerance is rejected");
        prop_assert!(matches!(err, LedgerError::Requests { .. }));
        prop_assert_eq!(broken.offered(), 0.0);

        // The carbon identity behaves the same way.
        let mut carbon = ConservedLedger::new();
        carbon
            .record_carbon(6.0 + 3.0 + 1.0, 6.0, 3.0, 1.0)
            .expect("balanced carbon is accepted");
        prop_assert!(carbon.record_carbon(10.0 + leak, 6.0, 3.0, 1.0).is_err());
    }
}
