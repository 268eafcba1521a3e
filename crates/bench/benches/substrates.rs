//! Criterion benchmarks of the substrate layers themselves: the
//! discrete-event engine, the grid synthesiser, placement and the CCI
//! calculator. These are the ablation-style benchmarks referenced in
//! `DESIGN.md`: they isolate the cost of each building block.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use junkyard_carbon::cci::CciCalculator;
use junkyard_carbon::embodied::EmbodiedCarbon;
use junkyard_carbon::ops::{OpUnit, Throughput};
use junkyard_carbon::units::{CarbonIntensity, GramsCo2e, TimeSpan, Watts};
use junkyard_grid::synth::CaisoSynthesizer;
use junkyard_microsim::app::{social_network, SN_COMPOSE_POST};
use junkyard_microsim::compiled::CoreHeap;
use junkyard_microsim::network::NetworkModel;
use junkyard_microsim::node::ten_pixel_cloudlet;
use junkyard_microsim::placement::Placement;
use junkyard_microsim::sim::{Simulation, Workload};
use junkyard_microsim::sweep::SweepConfig;

fn cci_calculator(c: &mut Criterion) {
    let calc = CciCalculator::new(OpUnit::Gflop)
        .embodied(EmbodiedCarbon::manufactured(
            "server",
            GramsCo2e::from_kilograms(3_330.0),
        ))
        .average_power(Watts::new(308.7))
        .grid(CarbonIntensity::from_grams_per_kwh(257.0))
        .throughput(Throughput::per_second(631.0, OpUnit::Gflop))
        .battery_replacement(GramsCo2e::from_kilograms(2.0), TimeSpan::from_years(2.3));
    c.bench_function("cci_60_month_series", |b| {
        b.iter(|| black_box(calc.series("server", (1..=60).map(f64::from)).unwrap()))
    });
}

fn grid_synthesis(c: &mut Criterion) {
    c.bench_function("caiso_synth_30_days", |b| {
        b.iter(|| black_box(CaisoSynthesizer::new(7, 30).intensity_trace()))
    });
}

fn placement_and_engine(c: &mut Criterion) {
    let app = social_network();
    let nodes = ten_pixel_cloudlet();
    c.bench_function("swarm_placement_social_network", |b| {
        b.iter(|| black_box(Placement::swarm_spread(&app, &nodes, 11).unwrap()))
    });

    let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
    let sim = Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap();
    let mut group = c.benchmark_group("des_engine");
    group.sample_size(10);
    group.bench_function("social_network_write_1k_qps_2s", |b| {
        b.iter(|| {
            black_box(
                sim.run(&Workload::steady(1_000.0, 2.0, Some(SN_COMPOSE_POST), 42))
                    .unwrap(),
            )
        })
    });
    // The pre-refactor event loop, kept as the executable specification:
    // the gap between this and the compiled run above is the compiled
    // engine's win.
    group.bench_function("social_network_write_1k_qps_2s_reference", |b| {
        b.iter(|| {
            black_box(
                sim.run_reference(&Workload::steady(1_000.0, 2.0, Some(SN_COMPOSE_POST), 42))
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// Per-stage engine benchmarks, so a regression in the full `des_engine`
/// numbers can be localised to arrival generation, compilation (placement
/// resolution + service-time precomputation) or resource-heap operations.
fn engine_stages(c: &mut Criterion) {
    let app = social_network();
    let nodes = ten_pixel_cloudlet();
    let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
    let sim = Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap();
    let compiled = sim.compile();

    c.bench_function("engine_compile_social_network", |b| {
        b.iter(|| black_box(sim.compile()))
    });

    let workload = Workload::steady(5_000.0, 2.0, Some(SN_COMPOSE_POST), 42);
    c.bench_function("engine_arrival_generation_5k_qps_2s", |b| {
        b.iter(|| black_box(compiled.arrivals(&workload).unwrap().count()))
    });

    c.bench_function("engine_core_heap_64k_reservations", |b| {
        b.iter(|| {
            let mut heap = CoreHeap::new(8, 0.0);
            let mut now = 0.0;
            for _ in 0..65_536 {
                let start = heap.begin(now);
                heap.finish_at(start + 0.001);
                now += 0.000_5;
            }
            black_box(heap.len())
        })
    });
}

/// The threaded sweep layer against its serial baseline (identical curves;
/// the ratio is the thread fan-out win on this machine).
fn threaded_sweep(c: &mut Criterion) {
    let app = social_network();
    let nodes = ten_pixel_cloudlet();
    let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
    let sim = Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap();
    let compiled = sim.compile();
    let sweep = SweepConfig::new(vec![500.0, 1_500.0, 2_500.0, 3_500.0], 2.0, 0.5)
        .request_type(SN_COMPOSE_POST);

    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    let serial = sweep.clone().parallelism(1);
    group.bench_function("social_network_write_4_points_serial", |b| {
        b.iter(|| black_box(serial.run("phones", &compiled).unwrap()))
    });
    group.bench_function("social_network_write_4_points_threaded", |b| {
        b.iter(|| black_box(sweep.run("phones", &compiled).unwrap()))
    });
    group.finish();
}

criterion_group!(
    substrates,
    cci_calculator,
    grid_synthesis,
    placement_and_engine,
    engine_stages,
    threaded_sweep
);
criterion_main!(substrates);
