//! The repository benchmark: one command that runs a study workload,
//! prints every metric by name with its unit, and checks the outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed 42] [--seconds 10] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it runs the workload untraced until `--seconds` have
//! passed (`wall_s` is the median run; the runs cycle through a few seeds
//! derived from `--seed`), times the input set-up between runs (`setup_s`
//! is the median) and reads the memory high-water mark
//! (`peak_rss_mb`). With `--trace 1` it runs the workload once with spans
//! around each public call, replays the calls with a `TraceRecorder`
//! attached, and reports the per-layer numbers; the spans and the numbers
//! are written under `perfbench/results/`.
//!
//! Every run checks its outputs: invariants at any seed, repeat runs
//! against the first, and at the pinned seed a digest against
//! `golden.txt`. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod host;
mod metrics;
mod spans;
mod stats;
mod workloads;

#[cfg(test)]
mod json;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::Host;
use junkyard_microsim::sweep::decorrelate_seed;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Ops, Traced, Workload};

/// The seed whose output digests are pinned in `golden.txt`.
const PINNED_SEED: u64 = 42;
/// Pinned digests, one `<workload> <hex>` line each.
const GOLDEN: &str = include_str!("../golden.txt");
/// Set-up samples before the first timed run (one more follows each).
const MIN_SETUP_SAMPLES: usize = 5;
/// Least wall time of one set-up sample.
const SETUP_SAMPLE: Duration = Duration::from_millis(20);
/// Least number of timed runs in one invocation, however long each takes.
const MIN_RUNS: usize = 3;
/// Seeds derived from `--seed` that the timed runs cycle through. Work
/// differs between seeds (fault plans, failures, search paths), so one
/// seed alone would make the median a property of that seed.
const SUB_SEEDS: usize = 4;

const USAGE: &str = "usage: perfbench --workload <engine-overload|lifecycle-decade|\
resilience-year|planner-search> [--seed N] [--seconds N] [--trace 0|1]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = PINNED_SEED;
        let mut seconds = 10;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: {value:?} is not 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = match args.workload.as_str() {
        "engine-overload" => drive(&workloads::engine::EngineOverload, &args),
        "lifecycle-decade" => drive(&workloads::lifecycle::LifecycleDecade, &args),
        "resilience-year" => drive(&workloads::resilience::ResilienceYear, &args),
        _ => drive(&workloads::planner::PlannerSearch, &args),
    };
    for problem in &report.ops.problems {
        println!("FAILED: {problem}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// The result line's content.
struct Report {
    ops: Ops,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.ops.failed == 0,
            self.ops.attempted.max(1),
            self.ops.failed,
        )
    }
}

/// A finite number as JSON; anything else is a bug reported as 0 (the
/// run is already marked failed by then).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// Checks one run's outputs: invariants, the digest of the first run
/// on the same inputs and, for inputs built from the pinned seed itself,
/// the golden digest.
fn check<W: Workload>(
    workload: &W,
    golden_for: Option<&str>,
    outputs: &W::Outputs,
    first: &mut Option<String>,
    ops: &mut Ops,
) {
    let problems = workload.invariants(outputs);
    ops.record(problems.is_empty(), || problems.join("; "));
    let digest = workload.digest(outputs).hex();
    let expected = match first {
        Some(first) => Some(first.clone()),
        None => {
            println!("digest: {digest}");
            *first = Some(digest.clone());
            golden_for.map(|workload| golden(workload).unwrap_or_default())
        }
    };
    if let Some(expected) = expected {
        ops.record(digest == expected, || {
            format!("output digest {digest}, expected {expected:?}")
        });
    }
}

/// The pinned digest of `workload`, if `golden.txt` has one.
fn golden(workload: &str) -> Option<String> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == workload)
        .map(|(_, hex)| hex.trim().to_owned())
}

fn drive<W: Workload>(workload: &W, args: &Args) -> Report {
    if args.trace {
        traced(workload, args)
    } else {
        timed(workload, args)
    }
}

/// One set-up sample: the set-up repeated until it has taken
/// `SETUP_SAMPLE`, so set-ups of a few microseconds still time steadily.
/// Returns the seconds per set-up and the last inputs built.
fn time_setup<W: Workload>(workload: &W, seed: u64, ops: &mut Ops) -> (f64, Option<W::Inputs>) {
    let start = Instant::now();
    let mut repeats = 0_u32;
    let mut inputs = None;
    while repeats == 0 || start.elapsed() < SETUP_SAMPLE {
        inputs = ops.result(workload.setup(seed)).or(inputs);
        repeats += 1;
    }
    (start.elapsed().as_secs_f64() / f64::from(repeats), inputs)
}

/// Untraced runs for `--seconds`: the end-to-end metrics. Run `i` uses
/// the inputs of sub-seed `i % SUB_SEEDS` (sub-seed 0 is the seed
/// itself), so a run's median covers several inputs rather than one. A
/// set-up sample follows every run, so `setup_s` is timed over the same
/// window as `wall_s`.
fn timed<W: Workload>(workload: &W, args: &Args) -> Report {
    let mut ops = Ops::default();
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..MIN_SETUP_SAMPLES {
        let (seconds, built) = time_setup(workload, args.seed, &mut ops);
        setup_s.push(seconds);
        inputs = built.or(inputs);
    }
    let Some(inputs) = inputs else {
        return failed_report(ops, &END_TO_END.map(|m| (m.name, m.unit)));
    };

    let budget = Duration::from_secs(args.seconds);
    let mut wall_s = Vec::new();
    // Per sub-seed: its inputs and the digest of its first run.
    let mut sets = vec![(inputs, None)];
    let start = Instant::now();
    while wall_s.len() < MIN_RUNS || start.elapsed() < budget {
        let sub = wall_s.len() % SUB_SEEDS;
        if sub == sets.len() {
            let built = workload.setup(decorrelate_seed(args.seed, sub as u64));
            match ops.result(built) {
                Some(inputs) => sets.push((inputs, None)),
                None => break,
            }
        }
        let (inputs, first) = &mut sets[sub];
        let run = Instant::now();
        let outputs = workload.run(inputs);
        wall_s.push(run.elapsed().as_secs_f64());
        if let Some(outputs) = ops.result(outputs) {
            let pinned = sub == 0 && args.seed == PINNED_SEED;
            check(
                workload,
                pinned.then_some(args.workload.as_str()),
                &outputs,
                first,
                &mut ops,
            );
        }
        setup_s.push(time_setup(workload, args.seed, &mut ops).0);
    }
    let setup = stats::median(&setup_s).unwrap_or(0.0);
    println!("setup_s: median {setup:.6} over {} samples", setup_s.len());
    let wall = stats::median(&wall_s).unwrap_or(0.0);
    let (q1, q3) = stats::quartiles(&wall_s).unwrap_or((wall, wall));
    println!(
        "wall_s: median {wall:.6} q1 {q1:.6} q3 {q3:.6} over {} runs of {} sub-seeds",
        wall_s.len(),
        sets.len()
    );
    let peak_rss = host::peak_rss_mb();
    ops.record(peak_rss.is_some(), || {
        "no VmHWM in /proc/self/status".into()
    });
    println!("{}", Host::calibrate().summary());
    Report {
        ops,
        metrics: vec![
            ("wall_s", wall, "s"),
            ("setup_s", setup, "s"),
            ("peak_rss_mb", peak_rss.unwrap_or(0.0), "MB"),
        ],
    }
}

/// One traced run: the per-layer metrics, the span file and the layer
/// file.
fn traced<W: Workload>(workload: &W, args: &Args) -> Report {
    let mut t = Traced::new();
    let root = t.spans.open("perfbench");
    let built = t.spans.time("setup", || workload.setup(args.seed));
    let Some(inputs) = t.ops.result(built) else {
        return failed_report(t.ops, &PER_LAYER.map(|l| (l.name, l.unit)));
    };
    let traced = t.spans.open("traced");
    let outputs = workload.traced(&inputs, &mut t);
    t.spans.close(traced);
    if let Some(outputs) = t.ops.result(outputs) {
        let pinned = args.seed == PINNED_SEED;
        check(
            workload,
            pinned.then_some(args.workload.as_str()),
            &outputs,
            &mut None,
            &mut t.ops,
        );
    }
    let host = t.spans.time("host.calibrate", Host::calibrate);
    t.spans.close(root);
    println!("{}", host.summary());
    t.set("host.spin_ms", host.spin_ms);
    t.set("host.spin_speedup", host.spin_speedup);
    t.set("host.workers", host.workers as f64);
    t.set("host.nproc", host.nproc as f64);
    if t.get("fanout.speedup") > 0.0 {
        t.set(
            "fanout.efficiency",
            t.get("fanout.speedup") / host.spin_speedup,
        );
    }
    let written = write_results(args, &host, &t);
    t.ops.record(written.is_ok(), || {
        format!("writing results: {}", written.err().unwrap_or_default())
    });
    let metrics: Vec<_> = t
        .layers()
        .map(|(layer, value)| (layer.name, value, layer.unit))
        .collect();
    for &(name, value, _) in &metrics {
        t.ops
            .record(value.is_finite(), || format!("{name} is {value}"));
    }
    Report {
        ops: t.ops,
        metrics,
    }
}

/// A result line for a run whose inputs never built: every metric the
/// mode reports, at 0.
fn failed_report(ops: Ops, metrics: &[(&'static str, &'static str)]) -> Report {
    Report {
        ops,
        metrics: metrics
            .iter()
            .map(|&(name, unit)| (name, 0.0, unit))
            .collect(),
    }
}

/// Writes `<workload>-seed<seed>.spans.jsonl` and `.layers.json` under
/// `perfbench/results/`.
fn write_results(args: &Args, host: &Host, t: &Traced) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let stem = format!("{}-seed{}", args.workload, args.seed);

    let mut layers = String::new();
    for (i, (layer, value)) in t.layers().enumerate() {
        let _ = write!(
            layers,
            "{}\n    {{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"better\":\"{}\",\"moves\":{:?},\"workloads\":{:?}}}",
            if i > 0 { "," } else { "" },
            layer.name,
            json_number(value),
            layer.unit,
            layer.better,
            layer.moves,
            layer.workloads,
        );
    }
    let json = format!(
        "{{\n  \"workload\":\"{}\",\n  \"seed\":{},\n  \"host\":{},\n  \"layers\":[{layers}\n  ]\n}}\n",
        args.workload,
        args.seed,
        host.to_json()
    );
    std::fs::write(dir.join(format!("{stem}.layers.json")), json).map_err(|e| e.to_string())?;
    let spans = dir.join(format!("{stem}.spans.jsonl"));
    std::fs::write(&spans, t.spans.to_jsonl()).map_err(|e| e.to_string())?;
    println!("spans: {}", spans.display());
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn args_default_to_the_pinned_seed() {
        let args = parse(&["--workload", "planner-search"]).unwrap();
        assert_eq!(args.seed, PINNED_SEED);
        assert!(!args.trace);
        let args = parse(&[
            "--workload",
            "engine-overload",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "engine-overload".into(),
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
    }

    #[test]
    fn bad_args_are_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "planner-search", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "planner-search", "--seed"]).is_err());
        assert!(parse(&["--workload", "planner-search", "--seed", "-1"]).is_err());
    }

    #[test]
    fn every_workload_has_a_pinned_digest() {
        for workload in WORKLOADS {
            let hex = golden(workload).unwrap_or_default();
            assert_eq!(hex.len(), 16, "{workload}");
            assert!(hex.chars().all(|c| c.is_ascii_hexdigit()), "{workload}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_required_keys() {
        let report = Report {
            ops: Ops {
                attempted: 3,
                failed: 0,
                problems: Vec::new(),
            },
            metrics: vec![("wall_s", 1.25, "s"), ("setup_s", f64::NAN, "s")],
        };
        assert_eq!(
            report.to_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"wall_s\":{\"value\":1.25,\"unit\":\"s\"},\
             \"setup_s\":{\"value\":0,\"unit\":\"s\"}}}"
        );
    }
}
