//! `lifecycle-decade`: `LifecycleStudy::paper_scale()` — the two-cloudlet
//! fleet and the datacenter over ten years of 24 windows a day, with
//! battery wear, failures, refills and the (year, site) fan-out.

use junkyard_core::lifecycle_study::LifecycleStudy;
use junkyard_fleet::lifecycle::{LifecycleResult, LifecycleSim};
use junkyard_obs::{EventKind, TraceRecorder};

use super::{count, digest_lifecycle, lifecycle_invariants, Traced, Workload};
use crate::stats::Digest;

pub struct LifecycleDecade;

pub struct Inputs {
    study: LifecycleStudy,
    cloudlet: LifecycleSim,
    datacenter: LifecycleSim,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    cloudlet: LifecycleResult,
    datacenter: LifecycleResult,
}

impl Outputs {
    fn crossover_day(&self) -> Option<usize> {
        self.cloudlet.first_day_cheaper_than(&self.datacenter)
    }
}

fn run_sim(sim: &LifecycleSim) -> Result<LifecycleResult, String> {
    sim.run().map_err(|e| e.to_string())
}

impl Workload for LifecycleDecade {
    type Inputs = Inputs;
    type Outputs = Outputs;

    fn setup(&self, seed: u64) -> Result<Inputs, String> {
        let study = LifecycleStudy::paper_scale().seed(seed);
        let cloudlet = study.build_cloudlet_fleet().map_err(|e| e.to_string())?;
        let datacenter = study.build_datacenter_fleet().map_err(|e| e.to_string())?;
        Ok(Inputs {
            study,
            cloudlet,
            datacenter,
        })
    }

    fn run(&self, inputs: &Inputs) -> Result<Outputs, String> {
        Ok(Outputs {
            cloudlet: run_sim(&inputs.cloudlet)?,
            datacenter: run_sim(&inputs.datacenter)?,
        })
    }

    fn digest(&self, outputs: &Outputs) -> Digest {
        let mut digest = Digest::new();
        digest_lifecycle(&mut digest, &outputs.cloudlet);
        digest_lifecycle(&mut digest, &outputs.datacenter);
        digest.option(outputs.crossover_day());
        digest
    }

    fn invariants(&self, outputs: &Outputs) -> Vec<String> {
        let mut problems = lifecycle_invariants("cloudlet", &outputs.cloudlet);
        problems.extend(lifecycle_invariants("datacenter", &outputs.datacenter));
        problems
    }

    fn traced(&self, inputs: &Inputs, t: &mut Traced) -> Result<Outputs, String> {
        let cloudlet = t
            .spans
            .time("lifecycle.cloudlet_run", || run_sim(&inputs.cloudlet))?;
        let datacenter = t
            .spans
            .time("lifecycle.datacenter_run", || run_sim(&inputs.datacenter))?;

        let mut recorder = TraceRecorder::new();
        for (name, sim, untraced) in [
            ("cloudlet", &inputs.cloudlet, &cloudlet),
            ("datacenter", &inputs.datacenter, &datacenter),
        ] {
            let traced = t
                .spans
                .time("lifecycle.run_traced", || sim.run_with(&mut recorder))
                .map_err(|e| e.to_string())?;
            t.same(name, &traced, untraced);
        }
        t.no_ledger_violations("lifecycle", &recorder);

        // The same cloudlet call with the (year, site) fan-out forced serial.
        let serial_sim = inputs
            .study
            .clone()
            .parallelism(1)
            .build_cloudlet_fleet()
            .map_err(|e| e.to_string())?;
        let serial = t.spans.time("fanout.serial_run", || run_sim(&serial_sim))?;
        t.same("cloudlet at parallelism(1)", &serial, &cloudlet);

        let cloudlet_ms = t.spans.total_ms("lifecycle.cloudlet_run");
        let datacenter_ms = t.spans.total_ms("lifecycle.datacenter_run");
        t.lifecycle_work(&cloudlet);
        t.lifecycle_work(&datacenter);
        t.set(
            "lifecycle.route_decisions",
            count(&recorder, EventKind::Route),
        );
        t.set("lifecycle.cloudlet_run_ms", cloudlet_ms);
        t.set("lifecycle.datacenter_run_ms", datacenter_ms);
        t.set(
            "lifecycle.ns_per_site_window",
            (cloudlet_ms + datacenter_ms) * 1e6 / t.get("lifecycle.site_windows"),
        );
        t.fanout(t.spans.total_ms("fanout.serial_run"), cloudlet_ms);
        t.set("obs.trace_events", recorder.events() as f64);
        t.set(
            "obs.traced_over_untraced",
            t.spans.total_ms("lifecycle.run_traced") / (cloudlet_ms + datacenter_ms),
        );
        Ok(Outputs {
            cloudlet,
            datacenter,
        })
    }
}
