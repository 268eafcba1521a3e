//! `resilience-year`: `ResilienceStudy::paper_scale().run()` — one hourly
//! year, every strategy against the same fault plan. The traced run adds
//! the fully mitigated fleet through `run_with`, so every fault, retry,
//! hedge and degradation transition is counted.

use junkyard_core::resilience_study::{ResilienceStudy, ResilienceStudyResult};
use junkyard_fleet::lifecycle::{LifecycleResult, LifecycleSim};
use junkyard_obs::{EventKind, TraceRecorder};

use super::{count, digest_lifecycle, lifecycle_invariants, Traced, Workload};
use crate::stats::Digest;

/// Strategies the study compares.
const STRATEGIES: usize = 5;

pub struct ResilienceYear;

pub struct Inputs {
    study: ResilienceStudy,
    /// The study builds its own fleets inside `run`; this one, the richest
    /// it can express, is what set-up time measures and the traced run
    /// replays.
    mitigated: LifecycleSim,
}

fn run_sim(sim: &LifecycleSim) -> Result<LifecycleResult, String> {
    sim.run().map_err(|e| e.to_string())
}

impl Workload for ResilienceYear {
    type Inputs = Inputs;
    type Outputs = ResilienceStudyResult;

    fn setup(&self, seed: u64) -> Result<Inputs, String> {
        let study = ResilienceStudy::paper_scale().seed(seed);
        let mitigated = study.mitigated_fleet().map_err(|e| e.to_string())?;
        Ok(Inputs { study, mitigated })
    }

    fn run(&self, inputs: &Inputs) -> Result<ResilienceStudyResult, String> {
        inputs.study.run().map_err(|e| e.to_string())
    }

    fn digest(&self, result: &ResilienceStudyResult) -> Digest {
        let mut digest = Digest::new();
        digest.word(u64::from(result.baseline_bit_identical()));
        for strategy in result.strategies() {
            digest_lifecycle(&mut digest, strategy.result());
            digest.float(strategy.result().failed_requests());
        }
        digest
    }

    fn invariants(&self, result: &ResilienceStudyResult) -> Vec<String> {
        let mut problems = Vec::new();
        if !result.baseline_bit_identical() {
            problems.push("the disabled fault layer changed the fault-free run".to_owned());
        }
        if result.strategies().len() != STRATEGIES {
            problems.push(format!(
                "{} strategies, expected {STRATEGIES}",
                result.strategies().len()
            ));
        }
        for strategy in result.strategies() {
            problems.extend(lifecycle_invariants(strategy.name(), strategy.result()));
        }
        if let Some(baseline) = result.strategy("fault-free-baseline") {
            let failed = baseline.result().failed_requests();
            if failed != 0.0 {
                problems.push(format!("the fault-free baseline failed {failed} requests"));
            }
        }
        problems
    }

    fn traced(&self, inputs: &Inputs, t: &mut Traced) -> Result<ResilienceStudyResult, String> {
        let result = t.spans.time("resilience.study_run", || self.run(inputs))?;

        let mitigated = t
            .spans
            .time("lifecycle.mitigated_run", || run_sim(&inputs.mitigated))?;
        let mut recorder = TraceRecorder::new();
        let traced = t
            .spans
            .time("lifecycle.mitigated_run_traced", || {
                inputs.mitigated.run_with(&mut recorder)
            })
            .map_err(|e| e.to_string())?;
        t.same("mitigated fleet", &traced, &mitigated);
        t.no_ledger_violations("mitigated fleet", &recorder);

        let serial_sim = inputs
            .study
            .clone()
            .parallelism(1)
            .mitigated_fleet()
            .map_err(|e| e.to_string())?;
        let serial = t.spans.time("fanout.serial_run", || run_sim(&serial_sim))?;
        t.same("mitigated fleet at parallelism(1)", &serial, &mitigated);

        let mitigated_ms = t.spans.total_ms("lifecycle.mitigated_run");
        t.lifecycle_work(&mitigated);
        t.set(
            "lifecycle.route_decisions",
            count(&recorder, EventKind::Route),
        );
        t.set(
            "lifecycle.ns_per_site_window",
            mitigated_ms * 1e6 / t.get("lifecycle.site_windows"),
        );
        t.set("faults.fault", count(&recorder, EventKind::Fault));
        t.set("faults.retry", count(&recorder, EventKind::Retry));
        t.set("faults.hedge", count(&recorder, EventKind::Hedge));
        t.set("faults.degrade", count(&recorder, EventKind::Degrade));
        t.fanout(t.spans.total_ms("fanout.serial_run"), mitigated_ms);
        t.set("obs.trace_events", recorder.events() as f64);
        t.set(
            "obs.traced_over_untraced",
            t.spans.total_ms("lifecycle.mitigated_run_traced") / mitigated_ms,
        );
        Ok(result)
    }
}
