//! Property tests on the fleet layer's carbon accounting and routing
//! invariants: the accounting is conservative (per-cell contributions sum
//! to the fleet totals) and the router is capacity-safe (no site is ever
//! assigned more than its declared capacity, shed traffic included in the
//! balance).

use junkyard::carbon::units::{CarbonIntensity, GramsCo2e, TimeSpan, Watts};
use junkyard::fleet::routing::{plan_window, RoutingPolicy};
use junkyard::fleet::schedule::DiurnalSchedule;
use junkyard::fleet::sim::{FleetConfig, FleetSim};
use junkyard::fleet::site::{FleetSite, GridRegion};
use junkyard::grid::synth::CaisoSynthesizer;
use junkyard::grid::trace::IntensityTrace;
use junkyard::microsim::app::hotel_reservation;
use junkyard::microsim::network::NetworkModel;
use junkyard::microsim::node::NodeSpec;
use junkyard::microsim::placement::Placement;
use junkyard::microsim::sim::{QueueDiscipline, ServerModel, Simulation};
use proptest::prelude::*;

/// A small two-phone simulation, cheap enough to run inside proptest.
fn tiny_sim() -> Simulation {
    let app = hotel_reservation();
    let nodes = vec![NodeSpec::pixel_3a(0), NodeSpec::pixel_3a(1)];
    let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
    Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap()
}

fn flat_site(name: &str, grams: f64, capacity: f64) -> FleetSite {
    let trace = IntensityTrace::constant(
        CarbonIntensity::from_grams_per_kwh(grams),
        TimeSpan::from_hours(1.0),
        TimeSpan::from_days(1.0),
    );
    FleetSite::new(name, &tiny_sim(), GridRegion::new(name, trace), capacity)
        .power(Watts::new(3.0), Watts::new(12.0))
        .embodied(GramsCo2e::from_kilograms(5.0), TimeSpan::from_years(3.0))
}

/// A flat-grid site whose simulation drops at bounded application queues.
fn bounded_site(name: &str, grams: f64, capacity: f64, model: ServerModel) -> FleetSite {
    let trace = IntensityTrace::constant(
        CarbonIntensity::from_grams_per_kwh(grams),
        TimeSpan::from_hours(1.0),
        TimeSpan::from_days(1.0),
    );
    let sim = tiny_sim().with_server_model(model);
    FleetSite::new(name, &sim, GridRegion::new(name, trace), capacity)
        .power(Watts::new(3.0), Watts::new(12.0))
        .embodied(GramsCo2e::from_kilograms(5.0), TimeSpan::from_years(3.0))
}

fn diurnal_site(name: &str, seed: u64, capacity: f64) -> FleetSite {
    let trace = CaisoSynthesizer::new(seed, 1).intensity_trace();
    FleetSite::new(name, &tiny_sim(), GridRegion::new(name, trace), capacity)
        .power(Watts::new(3.0), Watts::new(12.0))
        .embodied(GramsCo2e::from_kilograms(5.0), TimeSpan::from_years(3.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fleet carbon accounting is conservative: summing every cell's
    /// operational and embodied contributions (per site, then across
    /// sites — a different association order than the engine's running
    /// totals) reproduces the fleet totals within 1e-9.
    #[test]
    fn fleet_accounting_is_conservative(
        base_qps in 50.0f64..900.0,
        seed in 0u64..1_000,
        carbon_aware in 0u8..2,
    ) {
        let policy = if carbon_aware == 1 {
            RoutingPolicy::carbon_aware()
        } else {
            RoutingPolicy::Static
        };
        let fleet = FleetSim::new(
            vec![
                diurnal_site("a", seed, 600.0),
                flat_site("b", 400.0, 300.0),
            ],
            DiurnalSchedule::office_day(base_qps),
            policy,
            FleetConfig::new()
                .windows_per_day(4)
                .sim_slice_s(1.0)
                .warmup_s(0.0)
                .seed(seed),
        );
        let result = fleet.run().unwrap();
        let sites = result.site_names().len();
        let mut operational = 0.0;
        let mut embodied = 0.0;
        let mut requests = 0.0;
        for site in 0..sites {
            let site_cells: Vec<_> = result
                .cells()
                .iter()
                .filter(|c| c.site() == site)
                .collect();
            prop_assert_eq!(site_cells.len(), result.windows());
            operational += site_cells.iter().map(|c| c.operational().grams()).sum::<f64>();
            embodied += site_cells.iter().map(|c| c.embodied().grams()).sum::<f64>();
            requests += site_cells.iter().map(|c| c.requests()).sum::<f64>();
        }
        let tol: f64 = 1e-9;
        prop_assert!((operational - result.total_operational().grams()).abs() <= tol.max(result.total_operational().grams() * tol));
        prop_assert!((embodied - result.total_embodied().grams()).abs() <= tol.max(result.total_embodied().grams() * tol));
        prop_assert!((requests - result.total_requests()).abs() <= tol.max(result.total_requests() * tol));
        prop_assert!(
            ((operational + embodied) - result.total_carbon().grams()).abs()
                <= tol.max(result.total_carbon().grams() * tol)
        );
        // Per-cell totals are themselves consistent.
        for cell in result.cells() {
            prop_assert!(
                (cell.carbon().grams() - (cell.operational() + cell.embodied()).grams()).abs()
                    <= tol
            );
        }
    }

    /// The router never assigns more than a site's capacity at any instant
    /// of any window — under either policy, with demand both below and far
    /// beyond the fleet's aggregate capacity — and placed plus shed
    /// traffic always balances the demand.
    #[test]
    fn router_is_capacity_safe(
        base_qps in 10.0f64..5_000.0,
        cap_a in 50.0f64..800.0,
        cap_b in 50.0f64..800.0,
        windows_per_day in 1usize..9,
        carbon_aware in 0u8..2,
        utilization_cap in 0.3f64..1.0,
    ) {
        let policy = if carbon_aware == 1 {
            RoutingPolicy::CarbonAware { utilization_cap }
        } else {
            RoutingPolicy::Static
        };
        let sites = vec![
            flat_site("a", 150.0, cap_a),
            flat_site("b", 450.0, cap_b),
        ];
        let schedule = DiurnalSchedule::office_day(base_qps);
        for window in schedule.windows(windows_per_day) {
            let plan = plan_window(policy, &sites, &window);
            let mut placed_mean = 0.0;
            for (i, site) in sites.iter().enumerate() {
                let (start, end) = plan.shares()[i];
                prop_assert!(start >= 0.0 && end >= 0.0);
                prop_assert!(
                    start <= site.capacity_qps() + 1e-9,
                    "site {i} start {start} over capacity {}",
                    site.capacity_qps()
                );
                prop_assert!(
                    end <= site.capacity_qps() + 1e-9,
                    "site {i} end {end} over capacity {}",
                    site.capacity_qps()
                );
                placed_mean += plan.site_mean_qps(i);
            }
            prop_assert!(
                (placed_mean + plan.declined_mean_qps() - window.mean_qps()).abs()
                    <= 1e-9 * window.mean_qps().max(1.0)
            );
            prop_assert!(plan.declined_mean_qps() >= 0.0);
        }
    }

    /// With bounded application queues, every request the schedule offers
    /// is accounted exactly once — served, router-declined or
    /// queue-dropped — and the fleet's shed total decomposes into its two
    /// components within 1e-9 (relative).
    #[test]
    fn fleet_conserves_offered_demand_under_bounded_queues(
        base_qps in 200.0f64..3_500.0,
        queue_size in 1usize..48,
        cap in 400.0f64..4_000.0,
        seed in 0u64..1_000,
        dfcfs in 0u8..2,
    ) {
        let model = ServerModel::new()
            .with_discipline(if dfcfs == 1 {
                QueueDiscipline::DistributedFcfs
            } else {
                QueueDiscipline::CentralizedFcfs
            })
            .with_queue_size(Some(queue_size));
        let config = FleetConfig::new()
            .windows_per_day(4)
            .sim_slice_s(1.0)
            .warmup_s(0.0)
            .seed(seed);
        let schedule = DiurnalSchedule::office_day(base_qps);
        let offered: f64 = schedule
            .windows(4)
            .iter()
            .map(|w| w.mean_qps() * w.duration().seconds())
            .sum();
        let fleet = FleetSim::new(
            vec![
                bounded_site("a", 150.0, cap, model),
                bounded_site("b", 450.0, cap / 2.0, model),
            ],
            schedule,
            RoutingPolicy::Static,
            config,
        );
        let result = fleet.run().unwrap();
        let accounted = result.total_requests()
            + result.router_declined_requests()
            + result.queue_dropped_requests();
        prop_assert!(
            (accounted - offered).abs() <= 1e-9 * offered.max(1.0),
            "accounted {accounted} vs offered {offered}"
        );
        prop_assert!(
            (result.shed_requests()
                - result.router_declined_requests()
                - result.queue_dropped_requests())
            .abs()
                <= 1e-9 * result.shed_requests().max(1.0)
        );
        prop_assert!(result.router_declined_requests() >= 0.0);
        prop_assert!(result.queue_dropped_requests() >= 0.0);
        // Per-cell accounting: assigned demand = served + dropped.
        for cell in result.cells() {
            prop_assert!(
                (cell.offered_requests() - cell.requests() - cell.dropped_requests()).abs()
                    <= 1e-9 * cell.offered_requests().max(1.0)
            );
            prop_assert!(cell.dropped_requests() >= 0.0);
        }
    }
}

/// The fleet's slot-threading is deterministic: a serial run and runs at
/// several worker counts produce identical results, cell for cell.
#[test]
fn fleet_runs_are_identical_across_worker_counts() {
    let run = |workers: usize| {
        FleetSim::new(
            vec![diurnal_site("a", 7, 500.0), flat_site("b", 380.0, 400.0)],
            DiurnalSchedule::office_day(600.0),
            RoutingPolicy::carbon_aware(),
            FleetConfig::new()
                .windows_per_day(5)
                .sim_slice_s(1.0)
                .warmup_s(0.0)
                .parallelism(workers),
        )
        .run()
        .unwrap()
    };
    let serial = run(1);
    for workers in [2, 3, 8] {
        assert_eq!(serial, run(workers), "worker count {workers}");
    }
}
