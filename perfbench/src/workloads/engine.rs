//! `engine-overload`: `CompiledSim::run` on the ten-Pixel SocialNetwork
//! compose-post cloudlet at fixed open-loop Poisson rates past its
//! ~3.4k qps knee, under an unbounded cFCFS server (deep queues) and the
//! overload study's 64-deep bounded dFCFS server (the drop path).

use junkyard_core::deployments::{build_deployment, DeploymentKind};
use junkyard_microsim::app::{social_network, SN_COMPOSE_POST};
use junkyard_microsim::sim::{QueueDiscipline, ServerModel, Workload as Load};
use junkyard_microsim::sweep::decorrelate_seed;
use junkyard_microsim::{CompiledSim, RunMetrics};
use junkyard_obs::{EventKind, TraceRecorder};

use super::{count, Traced, Workload};
use crate::stats::Digest;

/// Offered rates: ~1.5x and ~2x the cloudlet's knee.
const RATES_QPS: [f64; 2] = [5_200.0, 6_800.0];
/// Simulated seconds per rate.
const DURATION_S: f64 = 5.0;
/// The swarm placement seed every study uses for this cloudlet.
const PLACEMENT_SEED: u64 = 11;
/// The overload study's per-queue bound.
const QUEUE_SLOTS: usize = 64;

pub struct EngineOverload;

pub struct Inputs {
    sims: Vec<CompiledSim>,
    loads: Vec<Load>,
}

/// The deterministic summary of one (server model, rate) run.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    events: u64,
    offered: usize,
    completed: usize,
    dropped: usize,
    median_ms: Option<f64>,
    p99_ms: Option<f64>,
}

impl Case {
    fn of(metrics: &RunMetrics, stats: &junkyard_microsim::LatencyStats) -> Self {
        Self {
            events: metrics.events_processed(),
            offered: metrics.offered(),
            completed: metrics.completions().len(),
            dropped: metrics.dropped(),
            median_ms: stats.median_ms(),
            p99_ms: stats.p99_ms(),
        }
    }
}

impl Workload for EngineOverload {
    type Inputs = Inputs;
    type Outputs = Vec<Case>;

    fn setup(&self, seed: u64) -> Result<Inputs, String> {
        let app = social_network();
        let models = [
            ServerModel::new(),
            ServerModel::new()
                .with_discipline(QueueDiscipline::DistributedFcfs)
                .with_queue_size(Some(QUEUE_SLOTS)),
        ];
        let mut sims = Vec::with_capacity(models.len());
        for model in models {
            let sim = build_deployment(DeploymentKind::PhoneCloudlet, &app, PLACEMENT_SEED)
                .map_err(|e| e.to_string())?
                .with_server_model(model);
            sims.push(sim.compile());
        }
        let loads = RATES_QPS
            .iter()
            .zip(0..)
            .map(|(&qps, i)| {
                Load::steady(
                    qps,
                    DURATION_S,
                    Some(SN_COMPOSE_POST),
                    decorrelate_seed(seed, i),
                )
            })
            .collect();
        Ok(Inputs { sims, loads })
    }

    fn run(&self, inputs: &Inputs) -> Result<Vec<Case>, String> {
        let mut cases = Vec::new();
        for sim in &inputs.sims {
            for load in &inputs.loads {
                let metrics = sim.run(load).map_err(|e| e.to_string())?;
                cases.push(Case::of(&metrics, &metrics.latency_stats()));
            }
        }
        Ok(cases)
    }

    fn digest(&self, cases: &Vec<Case>) -> Digest {
        let mut digest = Digest::new();
        for case in cases {
            digest
                .word(case.events)
                .count(case.offered)
                .count(case.dropped)
                .float(case.median_ms.unwrap_or(f64::NAN))
                .float(case.p99_ms.unwrap_or(f64::NAN));
        }
        digest
    }

    fn invariants(&self, cases: &Vec<Case>) -> Vec<String> {
        let mut problems = Vec::new();
        if cases.len() != 2 * RATES_QPS.len() {
            problems.push(format!("{} engine runs, expected 4", cases.len()));
        }
        for (i, case) in cases.iter().enumerate() {
            if case.offered != case.completed + case.dropped {
                problems.push(format!(
                    "run {i}: offered {} != completed {} + dropped {}",
                    case.offered, case.completed, case.dropped
                ));
            }
        }
        problems
    }

    fn traced(&self, inputs: &Inputs, t: &mut Traced) -> Result<Vec<Case>, String> {
        let mut cases = Vec::new();
        for sim in &inputs.sims {
            for load in &inputs.loads {
                let metrics = t
                    .spans
                    .time("microsim.run", || sim.run(load))
                    .map_err(|e| e.to_string())?;
                let stats = t
                    .spans
                    .time("metrics.latency_stats", || metrics.latency_stats());
                let mut recorder = TraceRecorder::new();
                let traced = t
                    .spans
                    .time("microsim.run_traced", || sim.run_with(load, &mut recorder))
                    .map_err(|e| e.to_string())?;
                t.same("CompiledSim::run_with", &traced, &metrics);
                let completed = metrics.completions().len();
                t.ops.record(
                    count(&recorder, EventKind::Complete) == completed as f64,
                    || "complete events differ from completions".to_owned(),
                );

                t.add("microsim.calls", 1.0);
                t.add("microsim.events", metrics.events_processed() as f64);
                t.add("microsim.offered", metrics.offered() as f64);
                t.add("microsim.completed", completed as f64);
                t.add("microsim.dropped", metrics.dropped() as f64);
                t.add("metrics.samples", stats.count() as f64);
                t.add("obs.trace_events", recorder.events() as f64);
                // Computed: the largest single run's completion log (each
                // run's log is freed before the next, so the largest sets
                // the peak).
                let mb = std::mem::size_of_val(metrics.completions()) as f64 / 1e6;
                let peak = t.get("microsim.completions_mb").max(mb);
                t.set("microsim.completions_mb", peak);
                cases.push(Case::of(&metrics, &stats));
            }
        }
        let run_ms = t.spans.total_ms("microsim.run");
        t.set(
            "microsim.ns_per_event",
            run_ms * 1e6 / t.get("microsim.events"),
        );
        t.set(
            "metrics.stats_ms",
            t.spans.total_ms("metrics.latency_stats"),
        );
        t.set(
            "obs.traced_over_untraced",
            t.spans.total_ms("microsim.run_traced") / run_ms,
        );
        Ok(cases)
    }
}
