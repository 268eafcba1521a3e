//! Property tests on the planner layer: the search is bit-identical at
//! any worker count (including its cache bookkeeping), cache hits
//! reproduce fresh evaluations exactly, and every frontier point
//! honours the SLO hard constraint.

use junkyard::carbon::units::{CarbonIntensity, TimeSpan};
use junkyard::devices::catalog;
use junkyard::fleet::lifecycle::MeasuredSlices;
use junkyard::fleet::routing::RoutingPolicy;
use junkyard::fleet::schedule::DiurnalSchedule;
use junkyard::fleet::site::GridRegion;
use junkyard::grid::synth::CaisoSynthesizer;
use junkyard::grid::trace::IntensityTrace;
use junkyard::microsim::app::hotel_reservation;
use junkyard::microsim::network::NetworkModel;
use junkyard::planner::{
    search, CohortOption, EvalCache, Fidelity, FleetEvaluator, PlannerSpace, SearchConfig, Slo,
};
use proptest::prelude::*;

/// A small planner space over two regions (one diurnal, one flat) and
/// three cohort options, cheap enough to search inside proptest.
fn tiny_space(trace_seed: u64) -> PlannerSpace {
    let pixel = catalog::pixel_3a();
    let diurnal = CaisoSynthesizer::new(trace_seed, 1)
        .step(TimeSpan::from_hours(1.0))
        .intensity_trace();
    let flat = IntensityTrace::constant(
        CarbonIntensity::from_grams_per_kwh(420.0),
        TimeSpan::from_hours(1.0),
        TimeSpan::from_days(1.0),
    );
    PlannerSpace::new(
        vec![
            CohortOption::empty(),
            CohortOption::uniform(pixel.clone(), 2, 300.0),
            CohortOption::uniform(pixel, 4, 300.0),
        ],
        vec![
            GridRegion::new("diurnal", diurnal),
            GridRegion::new("flat", flat),
        ],
    )
    .routings(vec![RoutingPolicy::Static, RoutingPolicy::CarbonAware])
    .charge_floors(vec![0.25, 0.5])
}

fn evaluator(trace_seed: u64, base_qps: f64, seed: u64) -> FleetEvaluator {
    FleetEvaluator::new(
        tiny_space(trace_seed),
        hotel_reservation(),
        NetworkModel::phone_wifi(),
        DiurnalSchedule::office_day(base_qps),
        seed,
    )
    .failures(500.0)
}

fn config(seed: u64) -> SearchConfig {
    SearchConfig::new()
        .seed(seed)
        .rungs(vec![Fidelity::coarse(), Fidelity::new(3, 2, 1.0, 0.0)])
        .local_search(2, 1, 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn search_is_bit_identical_serial_vs_threaded(
        seed in 0u64..1_000,
        trace_seed in 1u64..50,
        base_qps in 300.0f64..700.0,
        workers in 2usize..6,
    ) {
        let slo = Slo::new(150.0, 300.0).shed_ceiling(0.05);
        let evaluator = evaluator(trace_seed, base_qps, seed);
        let serial = search(
            evaluator.space(),
            &evaluator,
            &slo,
            &config(seed).parallelism(1),
            &mut EvalCache::new(),
        );
        let threaded = search(
            evaluator.space(),
            &evaluator,
            &slo,
            &config(seed).parallelism(workers),
            &mut EvalCache::new(),
        );
        // The whole outcome — frontier, argmin, rung populations, and
        // even the cache hit/miss counters — must match bit for bit.
        prop_assert_eq!(serial, threaded);
    }

    #[test]
    fn cache_hits_are_bit_identical_to_fresh_evaluations(
        seed in 0u64..1_000,
        trace_seed in 1u64..50,
        cohort_a in 0usize..3,
        cohort_b in 1usize..3,
    ) {
        let evaluator = evaluator(trace_seed, 500.0, seed);
        let candidate = junkyard::planner::CandidateDeployment::new(
            vec![cohort_a, cohort_b], 1, 0, 0, 0,
        );
        let fidelity = Fidelity::coarse();
        // Two independent fresh evaluations agree (purity) …
        let fresh_a = evaluator_eval(&evaluator, &candidate, fidelity);
        let fresh_b = evaluator_eval(&evaluator, &candidate, fidelity);
        prop_assert_eq!(&fresh_a, &fresh_b);
        // … and the cached replay is the same bits with no new runs.
        let mut cache = EvalCache::new();
        let batch = std::slice::from_ref(&candidate);
        let first = cache.score(&evaluator, batch, fidelity, 1);
        prop_assert_eq!(cache.len(), 1);
        let replay = cache.score(&evaluator, batch, fidelity, 1);
        prop_assert_eq!(cache.len(), 1, "replay must be served from the cache");
        prop_assert_eq!(&first, &replay);
        prop_assert_eq!(first[0].clone().unwrap(), fresh_a);
    }

    #[test]
    fn every_frontier_point_satisfies_the_slo(
        seed in 0u64..1_000,
        trace_seed in 1u64..50,
        median_limit in 60.0f64..200.0,
        shed_ceiling in 0.0f64..0.05,
    ) {
        let slo = Slo::new(median_limit, median_limit * 2.0).shed_ceiling(shed_ceiling);
        let evaluator = evaluator(trace_seed, 600.0, seed);
        let outcome = search(
            evaluator.space(),
            &evaluator,
            &slo,
            &config(seed),
            &mut EvalCache::new(),
        );
        for planned in outcome.frontier() {
            let evaluation = planned.evaluation();
            prop_assert!(evaluation.meets(&slo), "{} violates the SLO", planned.label());
            prop_assert!(evaluation.worst_median_ms() <= slo.median_limit_ms());
            prop_assert!(evaluation.worst_tail_ms() <= slo.tail_limit_ms());
            prop_assert!(evaluation.shed_fraction() <= slo.max_shed_fraction() + 1e-12);
            prop_assert!(evaluation.grams_per_request().is_some());
        }
        // The argmin, when present, sits on the frontier.
        if let Some(best) = outcome.best() {
            prop_assert!(outcome.frontier().iter().any(|p| p == best));
        }
    }
}

/// Scores one candidate alone, on a fresh slice table, directly through
/// the [`junkyard::planner::Evaluator`] trait.
fn evaluator_eval(
    evaluator: &FleetEvaluator,
    candidate: &junkyard::planner::CandidateDeployment,
    fidelity: Fidelity,
) -> junkyard::planner::Evaluation {
    use junkyard::planner::Evaluator as _;
    evaluator
        .evaluate(&[candidate], fidelity, &mut MeasuredSlices::new(), 2)
        .pop()
        .expect("one result per candidate")
        .expect("pixel cohorts build and simulate")
}
