//! Every metric the benchmark reports, with its unit, and for each
//! per-layer metric the end-to-end metrics and workloads it should move.
//! `BENCHMARK.json` at the repository root must list the same names and
//! units; a self-test holds the two together.

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "engine-overload",
    "lifecycle-decade",
    "resilience-year",
    "planner-search",
];

/// An end-to-end metric, measured with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

pub const END_TO_END: [EndToEnd; 3] = [
    // Median host seconds per run of the workload's public entry point.
    EndToEnd {
        name: "wall_s",
        unit: "s",
    },
    // Median host seconds to build the inputs before the first simulate call.
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    // The process's resident-set high-water mark.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
    },
];

/// A per-layer metric from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics a change to this layer should move. Empty for
    /// the calibration and tracing guards, which explain numbers rather
    /// than predict them.
    pub moves: &'static [&'static str],
    /// Workloads on which it should move them (and on which the layer is
    /// measured; elsewhere the traced run reports 0).
    pub workloads: &'static [&'static str],
}

const ENGINE: &[&str] = &["engine-overload"];
const LIFECYCLE: &[&str] = &["lifecycle-decade", "resilience-year"];
const DECADE: &[&str] = &["lifecycle-decade"];
const RESILIENCE: &[&str] = &["resilience-year"];
const PLANNER: &[&str] = &["planner-search"];
const FANOUT: &[&str] = &["lifecycle-decade", "resilience-year", "planner-search"];
const ALL: &[&str] = &WORKLOADS;
const WALL: &[&str] = &["wall_s"];
const WALL_RSS: &[&str] = &["wall_s", "peak_rss_mb"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [&'static str],
    workloads: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        workloads,
    }
}

pub const PER_LAYER: [Layer; 40] = [
    // microsim (compiled.rs): the event loop past the knee.
    layer("microsim.calls", "count", "lower", WALL, ENGINE),
    layer("microsim.events", "count", "lower", WALL, ENGINE),
    layer("microsim.offered", "count", "higher", WALL, ENGINE),
    layer("microsim.completed", "count", "higher", WALL_RSS, ENGINE),
    layer("microsim.dropped", "count", "lower", WALL, ENGINE),
    layer("microsim.ns_per_event", "ns", "lower", WALL, ENGINE),
    // Computed, not measured: completions × size_of::<CompletedRequest>().
    layer(
        "microsim.completions_mb",
        "MB",
        "lower",
        &["peak_rss_mb"],
        ENGINE,
    ),
    // metrics (metrics.rs): latency_stats() sorts every sample.
    layer("metrics.stats_ms", "ms", "lower", WALL, ENGINE),
    layer("metrics.samples", "count", "lower", WALL, ENGINE),
    // lifecycle (fleet::lifecycle): days, windows, cells, decisions.
    layer("lifecycle.site_days", "count", "lower", WALL, LIFECYCLE),
    layer("lifecycle.site_windows", "count", "lower", WALL, LIFECYCLE),
    layer("lifecycle.cells", "count", "lower", WALL, LIFECYCLE),
    layer(
        "lifecycle.route_decisions",
        "count",
        "lower",
        WALL,
        LIFECYCLE,
    ),
    layer(
        "lifecycle.battery_replacements",
        "count",
        "lower",
        WALL,
        LIFECYCLE,
    ),
    layer(
        "lifecycle.device_failures",
        "count",
        "lower",
        WALL,
        LIFECYCLE,
    ),
    layer("lifecycle.cloudlet_run_ms", "ms", "lower", WALL, DECADE),
    layer("lifecycle.datacenter_run_ms", "ms", "lower", WALL, DECADE),
    layer(
        "lifecycle.ns_per_site_window",
        "ns",
        "lower",
        WALL,
        LIFECYCLE,
    ),
    // faults (fleet::faults): transitions of the mitigated fleet.
    layer("faults.fault", "count", "lower", WALL, RESILIENCE),
    layer("faults.retry", "count", "lower", WALL, RESILIENCE),
    layer("faults.hedge", "count", "lower", WALL, RESILIENCE),
    layer("faults.degrade", "count", "lower", WALL, RESILIENCE),
    // planner (search.rs, evaluator.rs).
    layer("planner.enumerated", "count", "lower", WALL, PLANNER),
    layer("planner.screened_out", "count", "higher", WALL, PLANNER),
    layer("planner.rung_populations", "count", "lower", WALL, PLANNER),
    layer("planner.fresh_evals", "count", "lower", WALL, PLANNER),
    layer("planner.cache_hits", "count", "higher", WALL, PLANNER),
    layer("planner.cache_hit_rate", "ratio", "higher", WALL, PLANNER),
    layer(
        "planner.evaluator_build_ms",
        "ms",
        "lower",
        &["setup_s", "wall_s"],
        PLANNER,
    ),
    layer("planner.search_ms", "ms", "lower", WALL, PLANNER),
    // Search time over fresh evaluations, so no timing wrapper has to sit
    // inside the evaluation fan-out.
    layer("planner.ms_per_fresh_eval", "ms", "lower", WALL, PLANNER),
    // fan-out: the same public call at parallelism(1) against the default.
    layer("fanout.speedup", "x", "higher", WALL, FANOUT),
    layer("fanout.efficiency", "ratio", "higher", WALL, FANOUT),
    layer("fanout.serial_ms", "ms", "lower", WALL, FANOUT),
    // obs: guards the no-op recorder; moves no end-to-end metric.
    layer("obs.trace_events", "count", "lower", &[], ALL),
    layer("obs.traced_over_untraced", "x", "lower", &[], ALL),
    // host calibration, beside every traced result set.
    layer("host.spin_ms", "ms", "lower", &[], ALL),
    layer("host.spin_speedup", "x", "higher", &[], ALL),
    layer("host.workers", "count", "higher", &[], ALL),
    layer("host.nproc", "count", "higher", &[], ALL),
];

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::json::{parse, Value};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn benchmark() -> Value {
        parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    fn is_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn names(list: &Value) -> Vec<&str> {
        list.as_array()
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).expect("named"))
            .collect()
    }

    #[test]
    fn benchmark_json_has_exactly_the_required_keys() {
        let b = benchmark();
        let keys: BTreeSet<&str> = b.keys().into_iter().collect();
        let expected: BTreeSet<&str> = [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ]
        .into();
        assert_eq!(keys, expected);
        assert_eq!(b.keys().len(), expected.len(), "duplicate keys");
        let seconds = b.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        let paths = b.get("paths").unwrap().as_array();
        assert!((1..=16).contains(&paths.len()));
        assert_eq!(paths[0].as_str(), Some("perfbench"));
    }

    #[test]
    fn workloads_match_and_each_has_a_one_line_why() {
        let b = benchmark();
        let list = b.get("workloads").unwrap();
        assert_eq!(names(list), WORKLOADS.to_vec());
        for w in list.as_array() {
            assert_eq!(w.keys(), vec!["name", "why"]);
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn metric_names_units_and_bounds_match_the_table() {
        let b = benchmark();
        let e2e = b.get("end_to_end").unwrap();
        let layers = b.get("per_layer").unwrap();
        assert!(e2e.as_array().len() <= 16 && layers.as_array().len() <= 128);
        assert_eq!(
            names(e2e),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names(layers),
            PER_LAYER.iter().map(|l| l.name).collect::<Vec<_>>()
        );
        for (json, metric) in e2e.as_array().iter().zip(END_TO_END) {
            assert_eq!(json.keys(), vec!["name", "unit", "better", "bound"]);
            assert_eq!(json.get("unit").and_then(Value::as_str), Some(metric.unit));
            assert_eq!(json.get("better").and_then(Value::as_str), Some("lower"));
            let bound = json.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
        }
        let setup = &e2e.as_array()[1];
        assert_eq!(setup.get("name").and_then(Value::as_str), Some("setup_s"));
        let largest = e2e
            .as_array()
            .iter()
            .filter_map(|m| m.get("bound").and_then(Value::as_f64))
            .fold(0.0, f64::max);
        assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));
        for (json, layer) in layers.as_array().iter().zip(PER_LAYER) {
            assert_eq!(json.keys(), vec!["name", "unit", "better"]);
            assert_eq!(json.get("unit").and_then(Value::as_str), Some(layer.unit));
            assert_eq!(
                json.get("better").and_then(Value::as_str),
                Some(layer.better)
            );
        }
        let all: Vec<&str> = names(b.get("workloads").unwrap())
            .into_iter()
            .chain(names(e2e))
            .chain(names(layers))
            .collect();
        let unique: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        assert!(all.iter().all(|n| is_name(n)), "{all:?}");
    }

    #[test]
    fn every_layer_metric_names_its_end_to_end_metric_and_workload() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        for layer in PER_LAYER {
            assert!(!layer.workloads.is_empty(), "{}", layer.name);
            assert!(
                layer.workloads.iter().all(|w| WORKLOADS.contains(w)),
                "{}",
                layer.name
            );
            assert!(
                layer.moves.iter().all(|m| e2e.contains(m)),
                "{}",
                layer.name
            );
            let guard = layer.name.starts_with("obs.") || layer.name.starts_with("host.");
            assert_eq!(layer.moves.is_empty(), guard, "{}", layer.name);
            assert!(matches!(layer.better, "lower" | "higher"));
        }
    }
}
