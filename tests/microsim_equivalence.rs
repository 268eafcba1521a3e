//! Determinism and equivalence regression suite for the microsim engines.
//!
//! The compiled hot path ([`junkyard::microsim::compiled::CompiledSim`])
//! must produce **bit-identical** `RunMetrics` to the reference event loop
//! (`Simulation::run_reference`, the pre-refactor semantics) for every
//! seed: same offered count, same per-request latencies in the same order,
//! same utilisation buckets, same event count, same drop counters. These
//! properties drive both engines across randomly generated applications,
//! placements, phased workloads and (discipline × layout × queue bound)
//! server models, pin the threaded sweep layer to its serial baseline,
//! and pin the default model to goldens captured before the overload
//! refactor.

use junkyard::microsim::app::{
    hotel_reservation, social_network, Application, RequestType, ServiceCall, Stage,
    SN_COMPOSE_POST,
};
use junkyard::microsim::network::NetworkModel;
use junkyard::microsim::node::{ten_pixel_cloudlet, NodeSpec};
use junkyard::microsim::placement::Placement;
use junkyard::microsim::service::{ServiceKind, ServiceSpec};
use junkyard::microsim::sim::{
    CoreLayout, Phase, QueueDiscipline, ServerModel, Simulation, Workload,
};
use junkyard::microsim::sweep::SweepConfig;
use junkyard::microsim::RunMetrics;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random but structurally valid application from a seed: 3–10
/// services, 1–3 request types of 1–4 stages with 1–3 calls each, every
/// call referencing a declared service.
fn random_app(seed: u64) -> Application {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_services = 3 + (rng.random::<u32>() % 8) as usize;
    let kinds = [
        ServiceKind::Frontend,
        ServiceKind::Logic,
        ServiceKind::Cache,
        ServiceKind::Storage,
    ];
    let services: Vec<ServiceSpec> = (0..n_services)
        .map(|i| {
            let kind = if i == 0 {
                ServiceKind::Frontend
            } else {
                kinds[(rng.random::<u32>() % 4) as usize]
            };
            ServiceSpec::new(format!("svc-{i}"), kind, 0.05 + rng.random::<f64>() * 0.4)
        })
        .collect();

    let n_types = 1 + (rng.random::<u32>() % 3) as usize;
    let request_types: Vec<RequestType> = (0..n_types)
        .map(|t| {
            let n_stages = 1 + (rng.random::<u32>() % 4) as usize;
            let stages: Vec<Stage> = (0..n_stages)
                .map(|_| {
                    let n_calls = 1 + (rng.random::<u32>() % 3) as usize;
                    Stage::parallel(
                        (0..n_calls)
                            .map(|_| {
                                let target = (rng.random::<u32>() as usize) % n_services;
                                ServiceCall::new(
                                    format!("svc-{target}"),
                                    0.1 + rng.random::<f64>() * 2.5,
                                    100.0 + rng.random::<f64>() * 1_500.0,
                                    100.0 + rng.random::<f64>() * 2_500.0,
                                )
                            })
                            .collect(),
                    )
                })
                .collect();
            RequestType::new(format!("req-{t}"), 0.1 + rng.random::<f64>(), stages)
                .client_cpu_ms(0.1 + rng.random::<f64>())
                .client_response_bytes(200.0 + rng.random::<f64>() * 4_000.0)
        })
        .collect();

    Application::new("random-app", "svc-0", services, request_types)
}

/// Picks a random server model from a seed: either queue discipline,
/// either core layout (dedicated variants with 1–3 network cores) and an
/// unbounded, tiny or moderate per-queue bound.
fn random_server_model(seed: u64) -> ServerModel {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E);
    let discipline = if rng.random::<u32>() % 2 == 0 {
        QueueDiscipline::CentralizedFcfs
    } else {
        QueueDiscipline::DistributedFcfs
    };
    let layout = if rng.random::<u32>() % 2 == 0 {
        CoreLayout::Combined
    } else {
        CoreLayout::Dedicated {
            network_cores: 1 + rng.random::<u32>() % 3,
        }
    };
    let queue_size = match rng.random::<u32>() % 4 {
        0 => None,
        1 => Some(0),
        2 => Some(1 + (rng.random::<u32>() % 8) as usize),
        _ => Some(16 + (rng.random::<u32>() % 112) as usize),
    };
    ServerModel::new()
        .with_discipline(discipline)
        .with_layout(layout)
        .with_queue_size(queue_size)
}

/// A cluster of 2–5 generously sized nodes so every random app fits.
fn random_cluster(seed: u64) -> Vec<NodeSpec> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC1A5);
    let n_nodes = 2 + (rng.random::<u32>() % 4) as usize;
    (0..n_nodes)
        .map(|i| {
            NodeSpec::new(
                format!("node-{i}"),
                2 + rng.random::<u32>() % 7,
                0.4 + rng.random::<f64>() * 1.2,
                4.0 + rng.random::<f64>() * 4.0,
            )
        })
        .collect()
}

/// The most requests simultaneously in the system: between arrival and
/// arrival + latency.
fn peak_in_flight(metrics: &RunMetrics) -> usize {
    let mut edges: Vec<(f64, i32)> = metrics
        .completions()
        .iter()
        .flat_map(|c| {
            let arrival = c.arrival_s();
            [(arrival, 1), (arrival + c.latency_ms() / 1_000.0, -1)]
        })
        .collect();
    // Departures first at equal times, so the peak is not overstated.
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut live, mut peak) = (0_i32, 0_i32);
    for (_, step) in edges {
        live += step;
        peak = peak.max(live);
    }
    usize::try_from(peak).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random app + random placement + steady workload: the compiled engine
    /// reproduces the reference metrics exactly, on both network models.
    #[test]
    fn compiled_engine_matches_reference_on_random_scenarios(
        app_seed in 0u64..1_000_000,
        placement_seed in 0u64..1_000,
        workload_seed in 0u64..1_000_000,
        qps in 50.0f64..1_200.0,
        duration in 0.5f64..1.5,
        wifi in 0u8..2,
    ) {
        let app = random_app(app_seed);
        let nodes = random_cluster(app_seed);
        let placement = Placement::swarm_spread(&app, &nodes, placement_seed).unwrap();
        let network = if wifi == 1 {
            NetworkModel::phone_wifi()
        } else {
            NetworkModel::single_node_loopback()
        };
        let sim = Simulation::new(app, nodes, placement, network).unwrap();
        let workload = Workload::steady(qps, duration, None, workload_seed);
        let reference = sim.run_reference(&workload).unwrap();
        let compiled = sim.run(&workload).unwrap();
        prop_assert_eq!(&reference, &compiled);
        prop_assert_eq!(reference.events_processed(), compiled.events_processed());
    }

    /// Phased workloads (idle gaps, per-phase type restrictions, colocated
    /// clients) on the built-in applications stay bit-identical too.
    #[test]
    fn compiled_engine_matches_reference_on_phased_builtins(
        workload_seed in 0u64..1_000_000,
        qps_a in 100.0f64..1_500.0,
        qps_b in 100.0f64..1_500.0,
        social in 0u8..2,
        colocated in 0u8..2,
    ) {
        let app = if social == 1 { social_network() } else { hotel_reservation() };
        let restricted = if social == 1 { Some(SN_COMPOSE_POST) } else { None };
        let sim = if colocated == 1 {
            let nodes = vec![NodeSpec::c5("c5", 36, 72.0)];
            let placement = Placement::single_node(&app);
            Simulation::new(app, nodes, placement, NetworkModel::single_node_loopback())
                .unwrap()
                .with_colocated_client(true)
        } else {
            let nodes = ten_pixel_cloudlet();
            let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
            Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap()
        };
        let workload = Workload::phased(
            vec![
                Phase::idle(0.5),
                Phase::new(qps_a, 1.0, None),
                Phase::idle(0.25),
                Phase::new(qps_b, 1.0, restricted),
            ],
            workload_seed,
        );
        let reference = sim.run_reference(&workload).unwrap();
        let compiled = sim.run(&workload).unwrap();
        prop_assert_eq!(reference, compiled);
    }

    /// Time-varying (ramp) phases stay bit-identical too: the compiled
    /// engine's lazy thinning consumes the RNG in the reference order.
    #[test]
    fn compiled_engine_matches_reference_on_ramp_workloads(
        workload_seed in 0u64..1_000_000,
        qps_a in 0.0f64..1_200.0,
        qps_b in 100.0f64..1_500.0,
        social in 0u8..2,
    ) {
        let app = if social == 1 { social_network() } else { hotel_reservation() };
        let restricted = if social == 1 { Some(SN_COMPOSE_POST) } else { None };
        let nodes = ten_pixel_cloudlet();
        let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
        let sim = Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap();
        let workload = Workload::phased(
            vec![
                Phase::ramp(qps_a, qps_b, 1.0, None),
                Phase::idle(0.25),
                Phase::ramp(qps_b, qps_a, 1.0, restricted),
            ],
            workload_seed,
        );
        let reference = sim.run_reference(&workload).unwrap();
        let compiled = sim.run(&workload).unwrap();
        prop_assert_eq!(reference, compiled);
    }

    /// The differential overload harness: random (discipline × layout ×
    /// queue bound) server models over random applications, at loads from
    /// light to deep overload. The engines must agree on the *full*
    /// `RunMetrics` — including per-node drop counters and dropped-arrival
    /// lists — and every run must conserve work at both the call level
    /// (arrived == served + dropped per fleet) and the request level
    /// (offered == completed + dropped; the event loop drains fully).
    #[test]
    fn compiled_engine_matches_reference_under_random_server_models(
        app_seed in 0u64..1_000_000,
        model_seed in 0u64..1_000_000,
        workload_seed in 0u64..1_000_000,
        qps in 100.0f64..6_000.0,
        builtin in 0u8..3,
    ) {
        let (app, restricted) = match builtin {
            0 => (social_network(), Some(SN_COMPOSE_POST)),
            1 => (hotel_reservation(), None),
            _ => (random_app(app_seed), None),
        };
        let (nodes, placement_seed) = if builtin < 2 {
            (ten_pixel_cloudlet(), 11)
        } else {
            (random_cluster(app_seed), app_seed % 1_000)
        };
        let placement = Placement::swarm_spread(&app, &nodes, placement_seed).unwrap();
        let model = random_server_model(model_seed);
        let sim = Simulation::new(app, nodes, placement, NetworkModel::phone_wifi())
            .unwrap()
            .with_server_model(model);
        let workload = Workload::steady(qps, 1.0, restricted, workload_seed);
        let reference = sim.run_reference(&workload).unwrap();
        let compiled = sim.run(&workload).unwrap();
        prop_assert_eq!(&reference, &compiled);

        let arrived: u64 = reference.queue_stats().iter().map(|s| s.calls_arrived()).sum();
        let served: u64 = reference.queue_stats().iter().map(|s| s.calls_served()).sum();
        let dropped: u64 = reference.queue_stats().iter().map(|s| s.dropped()).sum();
        prop_assert_eq!(arrived, served + dropped);
        prop_assert_eq!(
            reference.offered(),
            reference.completions().len() + reference.dropped()
        );
        if model.queue_size().is_none() {
            prop_assert_eq!(reference.dropped(), 0);
        }
    }

    /// Sparse load: at most 5 qps between multi-second idle phases, so the
    /// event queue is nearly empty and its next event is often seconds
    /// ahead, many turns of the compiled engine's event calendar away.
    #[test]
    fn compiled_engine_matches_reference_under_sparse_load(
        app_seed in 0u64..1_000_000,
        model_seed in 0u64..1_000_000,
        workload_seed in 0u64..1_000_000,
        qps_a in 0.2f64..5.0,
        qps_b in 0.2f64..5.0,
        idle in 1.0f64..6.0,
    ) {
        let app = random_app(app_seed);
        let nodes = random_cluster(app_seed);
        let placement = Placement::swarm_spread(&app, &nodes, app_seed % 1_000).unwrap();
        let sim = Simulation::new(app, nodes, placement, NetworkModel::phone_wifi())
            .unwrap()
            .with_server_model(random_server_model(model_seed));
        let workload = Workload::phased(
            vec![
                Phase::idle(idle),
                Phase::new(qps_a, 4.0, None),
                Phase::idle(idle),
                Phase::new(qps_b, 4.0, None),
            ],
            workload_seed,
        );
        let reference = sim.run_reference(&workload).unwrap();
        let compiled = sim.run(&workload).unwrap();
        prop_assert_eq!(reference, compiled);
    }

    /// Deep unbounded-cFCFS overload: 2–3x the knee for 3 s, so thousands
    /// of requests queue and the compiled engine's event queue grows far
    /// past its initial size, then drains.
    #[test]
    fn compiled_engine_matches_reference_in_deep_overload(
        app_seed in 0u64..1_000_000,
        workload_seed in 0u64..1_000_000,
        cores in 2u32..6,
        knee_qps in 600.0f64..900.0,
        multiple in 2.0f64..3.0,
    ) {
        let app = random_app(app_seed);
        // One node on a loopback network, its core speed scaled so that the
        // CPU work of one `req-0` saturates it at `knee_qps`. Leaving out
        // the fixed per-call RPC overhead makes that an upper bound on the
        // true knee.
        let cpu_ms: f64 = app.request_types()[0]
            .stages()
            .iter()
            .flat_map(|stage| stage.calls())
            .map(|call| call.cpu_ms())
            .sum();
        let speed = knee_qps * cpu_ms / (1_000.0 * f64::from(cores));
        let nodes = vec![NodeSpec::new("node-0", cores, speed, 64.0)];
        let placement = Placement::single_node(&app);
        let sim =
            Simulation::new(app, nodes, placement, NetworkModel::single_node_loopback()).unwrap();
        let workload = Workload::steady(multiple * knee_qps, 3.0, Some("req-0"), workload_seed);
        let reference = sim.run_reference(&workload).unwrap();
        let compiled = sim.run(&workload).unwrap();
        prop_assert_eq!(&reference, &compiled);
        prop_assert_eq!(compiled.dropped(), 0);
        // Every request in flight holds at least one pending event until
        // its final client hop, so this bounds the queue's peak from below.
        let peak = peak_in_flight(&compiled);
        prop_assert!(peak > 1_500, "only {} requests in flight at peak", peak);
    }

    /// The threaded sweep produces the same curve as a serial sweep, in the
    /// same point order, for any worker count.
    #[test]
    fn threaded_sweeps_match_serial_sweeps(
        seed in 0u64..100_000,
        workers in 2usize..6,
        decorrelate in 0u8..2,
    ) {
        let app = hotel_reservation();
        let nodes = ten_pixel_cloudlet();
        let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
        let sim = Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap();
        let mut config = SweepConfig::new(vec![300.0, 800.0, 1_300.0, 1_800.0, 2_300.0], 1.0, 0.5)
            .seed(seed);
        if decorrelate == 1 {
            config = config.decorrelated_seeds();
        }
        let serial = config.clone().parallelism(1).run("hotel", &sim).unwrap();
        let threaded = config.parallelism(workers).run("hotel", &sim).unwrap();
        prop_assert_eq!(serial, threaded);
    }
}

/// The default server model (unbounded centralized FCFS, combined cores)
/// reproduces the exact pre-overload-refactor results: same offered count,
/// same event count, bit-identical latency percentiles, nothing dropped.
/// These constants were captured on the engine before queue disciplines,
/// core layouts and bounded queues existed; if this test fails, the
/// refactor changed default behaviour.
#[test]
fn default_model_reproduces_pre_overload_goldens() {
    let app = social_network();
    let nodes = ten_pixel_cloudlet();
    let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
    let sim = Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap();
    let workload = Workload::phased(
        vec![
            Phase::new(900.0, 2.0, Some(SN_COMPOSE_POST)),
            Phase::ramp(200.0, 1_100.0, 1.5, None),
        ],
        77,
    );
    let metrics = sim.run(&workload).unwrap();
    assert_eq!(metrics, sim.run_reference(&workload).unwrap());
    let stats = metrics.latency_stats();
    assert_eq!(metrics.offered(), 2_810);
    assert_eq!(metrics.events_processed(), 127_545);
    assert_eq!(
        stats.median_ms().map(f64::to_bits),
        Some(4_630_063_251_449_807_189)
    );
    assert_eq!(
        stats.tail_ms().map(f64::to_bits),
        Some(4_630_072_026_210_878_201)
    );
    assert_eq!(metrics.dropped(), 0);
    assert!(metrics.queue_stats().iter().all(|s| s.dropped() == 0));
}

/// The headline determinism guarantee, spelled out: two runs of the same
/// seed produce equal metrics, through both engines, and the engines agree
/// with each other.
#[test]
fn runs_are_deterministic_and_engines_agree() {
    let app = social_network();
    let nodes = ten_pixel_cloudlet();
    let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
    let sim = Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap();
    let workload = Workload::steady(900.0, 2.0, Some(SN_COMPOSE_POST), 77);
    let a = sim.run(&workload).unwrap();
    let b = sim.run(&workload).unwrap();
    let reference = sim.run_reference(&workload).unwrap();
    assert_eq!(a, b);
    assert_eq!(a, reference);
    assert!(a.events_processed() > 0);
}
