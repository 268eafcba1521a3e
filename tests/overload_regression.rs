//! Qualitative-shape regression tests for the overload regime: the
//! microsim's bounded queues must behave like a loss system should.
//!
//! Three pinned properties:
//!
//! 1. The drop fraction is monotonically nondecreasing in offered load.
//! 2. Below the sustainable-throughput knee, nothing is dropped.
//! 3. Finite queues bound the tail: at deep overload, distributed-FCFS
//!    with bounded queues serves its survivors with a far smaller p99
//!    than the same deployment with unbounded queues.

use junkyard::microsim::app::{hotel_reservation, social_network, SN_COMPOSE_POST};
use junkyard::microsim::network::NetworkModel;
use junkyard::microsim::node::ten_pixel_cloudlet;
use junkyard::microsim::placement::Placement;
use junkyard::microsim::sim::{QueueDiscipline, ServerModel, Simulation, Workload};
use junkyard::microsim::sweep::SweepConfig;

fn cloudlet(model: ServerModel) -> Simulation {
    let app = hotel_reservation();
    let nodes = ten_pixel_cloudlet();
    let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
    Simulation::new(app, nodes, placement, NetworkModel::phone_wifi())
        .unwrap()
        .with_server_model(model)
}

/// The knee of the unbounded default deployment, from a coarse sweep
/// under the paper's informal SLO (median ≤ 100 ms, tail ≤ 200 ms).
fn knee_qps() -> f64 {
    let sim = cloudlet(ServerModel::new()).compile();
    let curve = SweepConfig::new(vec![1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0], 1.5, 0.5)
        .run("baseline", &sim)
        .unwrap();
    curve
        .max_sustainable_qps(100.0, 200.0)
        .expect("the five-point sweep brackets the cloudlet's knee")
}

#[test]
fn drop_fraction_is_nondecreasing_in_offered_load() {
    for discipline in [
        QueueDiscipline::CentralizedFcfs,
        QueueDiscipline::DistributedFcfs,
    ] {
        let sim = cloudlet(
            ServerModel::new()
                .with_discipline(discipline)
                .with_queue_size(Some(16)),
        );
        let mut last = 0.0f64;
        for qps in [500.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0] {
            let metrics = sim.run(&Workload::steady(qps, 1.5, None, 42)).unwrap();
            let fraction = metrics.drop_fraction();
            assert!(
                fraction >= last - 1e-3,
                "{discipline:?}: drop fraction fell from {last} to {fraction} at {qps} qps"
            );
            last = fraction;
        }
        assert!(
            last > 0.5,
            "{discipline:?}: deep overload should shed most work, got {last}"
        );
    }
}

#[test]
fn no_drops_below_the_sustainable_knee() {
    let knee = knee_qps();
    assert!(knee > 1_000.0, "implausible knee {knee}");
    for discipline in [
        QueueDiscipline::CentralizedFcfs,
        QueueDiscipline::DistributedFcfs,
    ] {
        let sim = cloudlet(
            ServerModel::new()
                .with_discipline(discipline)
                .with_queue_size(Some(64)),
        );
        for multiplier in [0.25, 0.5, 0.75] {
            let metrics = sim
                .run(&Workload::steady(multiplier * knee, 1.5, None, 42))
                .unwrap();
            assert_eq!(
                metrics.dropped(),
                0,
                "{discipline:?} dropped below the knee at {multiplier}x ({knee} qps knee)"
            );
        }
        // And sanity: the same deployment does drop past the knee.
        let metrics = sim
            .run(&Workload::steady(3.0 * knee, 1.5, None, 42))
            .unwrap();
        assert!(
            metrics.dropped() > 0,
            "{discipline:?} never dropped at 3x the knee"
        );
    }
}

#[test]
fn finite_queues_bound_the_tail_under_dfcfs() {
    // Compose-post keeps the shared WiFi channel comfortable even at 4x
    // the knee, so the tail is governed by the application queues — the
    // thing the bound actually caps. (At extreme multiples the *network*
    // queue, which is deliberately unbounded, dominates instead.)
    let social = |model: ServerModel| {
        let app = social_network();
        let nodes = ten_pixel_cloudlet();
        let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
        Simulation::new(app, nodes, placement, NetworkModel::phone_wifi())
            .unwrap()
            .with_server_model(model)
    };
    let knee = SweepConfig::new(vec![1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0], 1.5, 0.5)
        .request_type(SN_COMPOSE_POST)
        .run("baseline", &social(ServerModel::new()).compile())
        .unwrap()
        .max_sustainable_qps(100.0, 200.0)
        .expect("the five-point sweep brackets the compose-post knee");
    let overload = Workload::steady(4.0 * knee, 1.5, Some(SN_COMPOSE_POST), 42);
    let dfcfs = ServerModel::new().with_discipline(QueueDiscipline::DistributedFcfs);
    let bounded = social(dfcfs.with_queue_size(Some(8)))
        .run(&overload)
        .unwrap();
    let unbounded = social(dfcfs).run(&overload).unwrap();
    let bounded_p99 = bounded.latency_stats().p99_ms().unwrap();
    let unbounded_p99 = unbounded.latency_stats().p99_ms().unwrap();
    assert!(
        bounded_p99 < unbounded_p99 / 2.0,
        "bounded p99 {bounded_p99} ms should be far below unbounded {unbounded_p99} ms"
    );
    assert!(
        bounded_p99 < 200.0,
        "an 8-slot queue cannot hold a {bounded_p99} ms p99"
    );
}
