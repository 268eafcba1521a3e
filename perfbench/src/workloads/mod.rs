//! The four study workloads, each driving one public entry point of the
//! stack from outside.

use std::collections::BTreeMap;

use junkyard_fleet::lifecycle::LifecycleResult;
use junkyard_obs::{EventKind, TraceRecorder};

use crate::metrics::{Layer, PER_LAYER};
use crate::spans::Spans;
use crate::stats::Digest;

pub mod engine;
pub mod lifecycle;
pub mod planner;
pub mod resilience;

/// One benchmark workload.
pub trait Workload {
    /// Everything built before the first simulate call.
    type Inputs;
    /// The deterministic outputs a run is checked on.
    type Outputs;

    /// Builds the inputs from the seed.
    fn setup(&self, seed: u64) -> Result<Self::Inputs, String>;

    /// One untraced run of the workload's public entry point.
    fn run(&self, inputs: &Self::Inputs) -> Result<Self::Outputs, String>;

    /// A digest of the outputs pinned at the default seed.
    fn digest(&self, outputs: &Self::Outputs) -> Digest;

    /// Invariants that hold at every seed; each miss is one message.
    fn invariants(&self, outputs: &Self::Outputs) -> Vec<String>;

    /// The same run with spans around each public call, followed by the
    /// traced calls and the per-layer numbers. Returns the untraced
    /// outputs.
    fn traced(&self, inputs: &Self::Inputs, t: &mut Traced) -> Result<Self::Outputs, String>;
}

/// Operations attempted and failed, with a message per failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Ops {
    /// Counts one operation; a failure keeps its message.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Counts one operation that returned `result`.
    pub fn result<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(err) => {
                self.failed += 1;
                self.problems.push(err);
                None
            }
        }
    }
}

/// State of a traced run: spans, per-layer numbers and checks.
#[derive(Debug)]
pub struct Traced {
    pub spans: Spans,
    pub ops: Ops,
    layers: BTreeMap<&'static str, f64>,
}

impl Traced {
    /// Every per-layer metric starts at 0: a layer the workload does not
    /// exercise reports 0.
    #[must_use]
    pub fn new() -> Self {
        Self {
            spans: Spans::new(),
            ops: Ops::default(),
            layers: PER_LAYER.iter().map(|l| (l.name, 0.0)).collect(),
        }
    }

    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`]: that is a bug here.
    pub fn set(&mut self, name: &'static str, value: f64) {
        *self
            .layers
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}")) = value;
    }

    /// Adds to a per-layer metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let current = self.get(name);
        self.set(name, current + value);
    }

    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }

    /// The per-layer metrics with their values, in [`PER_LAYER`] order.
    pub fn layers(&self) -> impl Iterator<Item = (&'static Layer, f64)> + '_ {
        PER_LAYER.iter().map(|l| (l, self.get(l.name)))
    }

    /// Checks that a traced call reproduced the untraced one.
    pub fn same<T: PartialEq>(&mut self, what: &str, traced: &T, untraced: &T) {
        self.ops.record(traced == untraced, || {
            format!("{what}: traced output differs from untraced output")
        });
    }

    /// Checks a recorder for conservation-ledger violations.
    pub fn no_ledger_violations(&mut self, what: &str, recorder: &TraceRecorder) {
        let violations = recorder
            .events_in_order()
            .filter(|(_, e)| e.kind == EventKind::Ledger && e.key == "violation")
            .count();
        self.ops.record(violations == 0, || {
            format!("{what}: {violations} ledger violation event(s)")
        });
    }

    /// Records a fan-out speed-up: the serial call's time over the
    /// default-parallelism call's.
    pub fn fanout(&mut self, serial_ms: f64, parallel_ms: f64) {
        self.set("fanout.serial_ms", serial_ms);
        self.set("fanout.speedup", serial_ms / parallel_ms);
    }

    /// Adds the work counts of one lifecycle result.
    pub fn lifecycle_work(&mut self, result: &LifecycleResult) {
        let sites = result.site_names().len() as f64;
        self.add(
            "lifecycle.site_days",
            result.day_ledger().len() as f64 * sites,
        );
        self.add(
            "lifecycle.site_windows",
            result.window_health().len() as f64 * sites,
        );
        self.add("lifecycle.cells", result.cells().len() as f64);
        self.add(
            "lifecycle.battery_replacements",
            f64::from(result.total_battery_replacements()),
        );
        self.add(
            "lifecycle.device_failures",
            f64::from(result.total_device_failures()),
        );
    }
}

/// The count a recorder holds for `kind`.
#[must_use]
pub fn count(recorder: &TraceRecorder, kind: EventKind) -> f64 {
    recorder.counts()[kind.index()] as f64
}

/// Mixes the parts of a lifecycle result the digest pins: gCO2e/request,
/// replacements, failures and availability.
pub fn digest_lifecycle(digest: &mut Digest, result: &LifecycleResult) {
    digest
        .float(result.grams_per_request().unwrap_or(f64::NAN))
        .word(u64::from(result.total_battery_replacements()))
        .word(u64::from(result.total_device_failures()))
        .float(result.availability())
        .float(result.total_requests());
}

/// Invariants every lifecycle result keeps at any seed.
#[must_use]
pub fn lifecycle_invariants(what: &str, result: &LifecycleResult) -> Vec<String> {
    let mut problems = Vec::new();
    match result.grams_per_request() {
        Some(g) if g.is_finite() && g > 0.0 => {}
        other => problems.push(format!("{what}: gCO2e/request is {other:?}")),
    }
    let availability = result.availability();
    if !(0.0..=1.0).contains(&availability) {
        problems.push(format!(
            "{what}: availability {availability} outside [0, 1]"
        ));
    }
    let expected_cells = result.years() * result.site_names().len();
    if result.cells().len() != expected_cells {
        problems.push(format!(
            "{what}: {} cells, expected {expected_cells}",
            result.cells().len()
        ));
    }
    problems
}
