//! `planner-search`: the quick `PlannerStudy` — saturation screen,
//! successive halving, mutation rounds over the evaluation cache, and the
//! hand-built baseline scored through the same evaluator.

use junkyard_core::planner_study::{PlannerStudy, PlannerStudyResult};
use junkyard_obs::{EventKind, TraceRecorder};
use junkyard_planner::search::search_with;
use junkyard_planner::{EvalCache, Fidelity, FleetEvaluator, SearchConfig};

use super::{count, Traced, Workload};
use crate::stats::Digest;

pub struct PlannerSearch;

pub struct Inputs {
    seed: u64,
    study: PlannerStudy,
    evaluator: FleetEvaluator,
}

/// `PlannerStudy::quick`'s search configuration, rebuilt from the public
/// builders. The traced run checks that it reproduces the study's
/// outcome, so a drift in either shows as a failed check.
fn quick_search_config(study: &PlannerStudy, seed: u64) -> SearchConfig {
    SearchConfig::new()
        .seed(seed)
        .rungs(vec![Fidelity::coarse(), Fidelity::new(4, 2, 1.0, 0.0)])
        .local_search(4, 2, 2)
        .pin(study.baseline_candidate())
}

impl Workload for PlannerSearch {
    type Inputs = Inputs;
    type Outputs = PlannerStudyResult;

    fn setup(&self, seed: u64) -> Result<Inputs, String> {
        let study = PlannerStudy::quick().seed(seed);
        let evaluator = study.evaluator().map_err(|e| e.to_string())?;
        Ok(Inputs {
            seed,
            study,
            evaluator,
        })
    }

    fn run(&self, inputs: &Inputs) -> Result<PlannerStudyResult, String> {
        inputs.study.run().map_err(|e| e.to_string())
    }

    fn digest(&self, result: &PlannerStudyResult) -> Digest {
        let outcome = result.outcome();
        let mut digest = Digest::new();
        match result.best() {
            Some(best) => digest
                .word(best.candidate().fingerprint())
                .float(best.evaluation().grams_per_request().unwrap_or(f64::NAN)),
            None => digest.word(0),
        };
        digest
            .float(
                result
                    .baseline()
                    .evaluation()
                    .grams_per_request()
                    .unwrap_or(f64::NAN),
            )
            .count(outcome.candidates_enumerated())
            .count(outcome.screened_out())
            .word(outcome.fresh_evaluations())
            .word(outcome.cache_hits())
            .word(outcome.cache_misses());
        for &population in outcome.rung_populations() {
            digest.count(population);
        }
        for planned in outcome.frontier() {
            digest.word(planned.candidate().fingerprint());
        }
        digest
    }

    fn invariants(&self, result: &PlannerStudyResult) -> Vec<String> {
        let slo = result.slo();
        result
            .outcome()
            .frontier()
            .iter()
            .filter(|planned| !planned.evaluation().meets(&slo))
            .map(|planned| format!("frontier row {} violates the SLO", planned.label()))
            .collect()
    }

    fn traced(&self, inputs: &Inputs, t: &mut Traced) -> Result<PlannerStudyResult, String> {
        let result = t.spans.time("planner.study_run", || self.run(inputs))?;

        let evaluator = t
            .spans
            .time("planner.evaluator_build", || inputs.study.evaluator())
            .map_err(|e| e.to_string())?;
        let config = quick_search_config(&inputs.study, inputs.seed);
        let mut cache = EvalCache::new();
        let mut recorder = TraceRecorder::new();
        let outcome = t.spans.time("planner.search", || {
            search_with(
                evaluator.space(),
                &evaluator,
                &inputs.study.slo_bounds(),
                &config,
                &mut cache,
                &mut recorder,
            )
        });
        t.same("search_with", &outcome, result.outcome());
        t.ops.record(
            count(&recorder, EventKind::CacheHit) == outcome.cache_hits() as f64,
            || "cache-hit events differ from the outcome's cache hits".to_owned(),
        );

        let serial = t.spans.time("fanout.serial_run", || {
            inputs.study.clone().parallelism(1).run()
        });
        let serial = serial.map_err(|e| e.to_string())?;
        t.same("planner study at parallelism(1)", &serial, &result);

        let search_ms = t.spans.total_ms("planner.search");
        let fresh = outcome.fresh_evaluations() as f64;
        t.set("planner.enumerated", outcome.candidates_enumerated() as f64);
        t.set("planner.screened_out", outcome.screened_out() as f64);
        t.set(
            "planner.rung_populations",
            outcome.rung_populations().iter().sum::<usize>() as f64,
        );
        t.set("planner.fresh_evals", fresh);
        t.set("planner.cache_hits", outcome.cache_hits() as f64);
        t.set("planner.cache_hit_rate", outcome.cache_hit_rate());
        t.set(
            "planner.evaluator_build_ms",
            t.spans.total_ms("planner.evaluator_build"),
        );
        t.set("planner.search_ms", search_ms);
        t.set("planner.ms_per_fresh_eval", search_ms / fresh);
        t.fanout(
            t.spans.total_ms("fanout.serial_run"),
            t.spans.total_ms("planner.study_run"),
        );
        t.set("obs.trace_events", recorder.events() as f64);
        // The study run also builds an evaluator and scores the baseline,
        // so the untraced side of the tracing ratio is the same search on
        // the set-up evaluator.
        let untraced = t.spans.time("planner.search_untraced", || {
            junkyard_planner::search(
                inputs.evaluator.space(),
                &inputs.evaluator,
                &inputs.study.slo_bounds(),
                &config,
                &mut EvalCache::new(),
            )
        });
        t.same("search", &untraced, &outcome);
        t.set(
            "obs.traced_over_untraced",
            search_ms / t.spans.total_ms("planner.search_untraced"),
        );
        Ok(result)
    }
}
