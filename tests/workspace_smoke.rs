//! Smoke tests for the workspace wiring: every facade re-export resolves,
//! the crates agree on each other's types across the dependency edges,
//! every declared edge is used, every workspace-level dependency is
//! declared by a member, and the version constant is populated.
//! These tests exist to fail loudly if a crate is dropped from the
//! workspace or a facade re-export is renamed.

use std::fs;
use std::path::Path;

use junkyard::battery::SmartChargePolicy;
use junkyard::carbon::cci::CciCalculator;
use junkyard::carbon::ops::{OpUnit, Throughput};
use junkyard::carbon::units::{CarbonIntensity, TimeSpan, Watts};
use junkyard::cluster::presets::ten_phone_prototype;
use junkyard::core::single_device::SingleDeviceStudy;
use junkyard::devices::benchmark::Benchmark;
use junkyard::grid::synth::CaisoSynthesizer;
use junkyard::microsim::app::hotel_reservation;
use junkyard::planner::{Fidelity, Slo};
use junkyard::thermal::PhoneThermalModel;

#[test]
fn version_is_populated() {
    assert!(!junkyard::VERSION.is_empty());
    let mut parts = junkyard::VERSION.split('.');
    assert!(
        parts
            .next()
            .is_some_and(|major| major.parse::<u64>().is_ok()),
        "VERSION should start with a numeric major component, got {:?}",
        junkyard::VERSION
    );
}

#[test]
fn every_facade_module_resolves() {
    // One constructor per re-exported crate; the point is that the paths
    // exist and the inter-crate types line up, not the numbers.
    let cci = CciCalculator::new(OpUnit::Gflop)
        .average_power(Watts::new(2.0))
        .grid(CarbonIntensity::from_grams_per_kwh(257.0))
        .throughput(Throughput::per_second(10.0, OpUnit::Gflop));
    assert!(cci.cci_at(TimeSpan::from_years(1.0)).is_ok());

    let _ = Benchmark::Dijkstra;
    let _ = SmartChargePolicy::paper_default();
    let _ = PhoneThermalModel::pixel_3a();
    let _ = ten_phone_prototype();
    let app = hotel_reservation();
    assert!(!app.services().is_empty());

    let trace = CaisoSynthesizer::new(1, 1).intensity_trace();
    assert!(trace.mean().grams_per_kwh() > 0.0);

    // planner -> fleet/microsim: the SLO and fidelity types resolve and
    // agree with the evaluator layer's expectations.
    let slo = Slo::paper_default();
    assert!(slo.tail_limit_ms() > slo.median_limit_ms());
    assert!(Fidelity::coarse().horizon_days() < Fidelity::fine().horizon_days());
}

#[test]
fn facade_study_layer_drives_the_stack_end_to_end() {
    // core -> devices/carbon: the smallest paper artefact, via the facade
    // only. Exercises the full dependency chain the workspace declares.
    let chart = SingleDeviceStudy::new(Benchmark::Dijkstra).run_paper_devices();
    assert!(!chart.lines().is_empty());
    for line in chart.lines() {
        assert!(line.final_value().is_some());
    }
}

#[test]
fn every_declared_dependency_is_used() {
    // An edge no source file names still builds the dependency and
    // misstates the crate graph. Each name under `[dependencies]` and
    // `[dev-dependencies]` of `crates/*/Cargo.toml` must appear as a whole
    // identifier (`-` read as `_`) in that crate's own sources.
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut unused = Vec::new();
    for entry in fs::read_dir(&crates).expect("crates/ is readable") {
        let krate = entry.expect("crates/ entry is readable").path();
        let manifest = fs::read_to_string(krate.join("Cargo.toml")).expect("crate manifest");
        let mut sources = String::new();
        for dir in ["src", "tests", "examples"] {
            append_rust_sources(&krate.join(dir), &mut sources);
        }
        for dependency in declared_dependencies(&manifest) {
            if !names_identifier(&sources, &dependency.replace('-', "_")) {
                unused.push(format!("{}: {dependency}", krate.display()));
            }
        }
    }
    assert!(unused.is_empty(), "declared but never named: {unused:#?}");
}

#[test]
fn every_workspace_dependency_is_declared_by_a_member() {
    // A `[workspace.dependencies]` entry that no member manifest declares
    // keeps a dead path, and whatever crate sits behind it, wired into
    // the workspace. The root package counts as a member.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let mut declared = Vec::new();
    for member in workspace_members(&manifest) {
        let member_manifest =
            fs::read_to_string(root.join(&member).join("Cargo.toml")).expect("member manifest");
        declared.extend(declared_dependencies(&member_manifest));
    }
    let undeclared: Vec<String> = section_keys(&manifest, &["[workspace.dependencies]"])
        .into_iter()
        .filter(|name| !declared.contains(name))
        .collect();
    assert!(
        undeclared.is_empty(),
        "in [workspace.dependencies] but declared by no member: {undeclared:?}"
    );
}

/// The paths listed in the root manifest's `members = [..]` array.
fn workspace_members(manifest: &str) -> Vec<String> {
    let start = manifest
        .find("\nmembers = [")
        .expect("the root manifest lists its members");
    let list = &manifest[start..];
    let list = &list[..list.find(']').expect("the members array closes")];
    list.split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

/// The dependency names declared under `[dependencies]` and
/// `[dev-dependencies]` (`name = ..` or `name.workspace = true`).
fn declared_dependencies(manifest: &str) -> Vec<String> {
    section_keys(manifest, &["[dependencies]", "[dev-dependencies]"])
}

/// The key names (`name = ..` or `name.workspace = true`) under any of
/// the given section headers.
fn section_keys(manifest: &str, sections: &[&str]) -> Vec<String> {
    let mut in_section = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_section = sections.contains(&line);
        } else if let Some((key, _)) = line.split_once('=').filter(|_| in_section) {
            let name = key.split('.').next().unwrap_or(key).trim();
            if !name.starts_with('#') {
                names.push(name.to_owned());
            }
        }
    }
    names
}

fn append_rust_sources(dir: &Path, out: &mut String) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("source entry is readable").path();
        if path.is_dir() {
            append_rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push_str(&fs::read_to_string(&path).expect("source file is readable"));
            out.push('\n');
        }
    }
}

/// Whether `ident` occurs in `source` with no identifier character on
/// either side.
fn names_identifier(source: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    source.match_indices(ident).any(|(at, _)| {
        !source[..at].chars().next_back().is_some_and(is_ident)
            && !source[at + ident.len()..]
                .chars()
                .next()
                .is_some_and(is_ident)
    })
}
