//! The `junkyard_lint` binary: scans the workspace, prints the human
//! report, writes `LINT_report.json` at the workspace root, and exits
//! non-zero when the determinism & conservation gate fails. CI runs this
//! as a hard gate after the build.

use std::ffi::OsString;
use std::path::PathBuf;
use std::process::ExitCode;

use junkyard_lint::baseline::Baseline;
use junkyard_lint::engine::{analyze, Config};
use junkyard_lint::report;

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--contract") {
        print!("{}", report::contract());
        return ExitCode::SUCCESS;
    }
    let strict_ratchet = std::env::args().any(|a| a == "--strict-ratchet");
    match run(strict_ratchet) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("junkyard_lint: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The workspace to scan: `JUNKYARD_LINT_ROOT` when set (the test
/// harness points the scan at a fixture), else two levels above this
/// crate's manifest directory — the one `cargo run` exports at run time
/// if present, the one the binary was built in otherwise. The run-time
/// value wins so that a copied checkout, `target/` included, lints
/// itself rather than the tree the binary was compiled in.
fn workspace_root(lint_root: Option<OsString>, run_manifest_dir: Option<OsString>) -> PathBuf {
    if let Some(root) = lint_root {
        return PathBuf::from(root);
    }
    run_manifest_dir
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("..")
        .join("..")
}

fn run(strict_ratchet: bool) -> Result<bool, String> {
    let root = workspace_root(
        std::env::var_os("JUNKYARD_LINT_ROOT"),
        std::env::var_os("CARGO_MANIFEST_DIR"),
    );
    let baseline_path = root.join("lint_baseline.json");
    let baseline_text = std::fs::read_to_string(&baseline_path).map_err(|e| {
        format!(
            "reading {} (the ratchet baseline is committed; create it with empty ratchets \
             if starting fresh): {e}",
            baseline_path.display()
        )
    })?;
    let baseline = Baseline::parse(&baseline_text)
        .map_err(|e| format!("parsing {}: {e}", baseline_path.display()))?;

    let analysis = analyze(&root, &Config::junkyard(), &baseline)?;

    let report_path = root.join("LINT_report.json");
    std::fs::write(&report_path, report::json(&analysis))
        .map_err(|e| format!("writing {}: {e}", report_path.display()))?;

    print!("{}", report::human(&analysis));

    // `--strict-ratchet` (CI): the committed baseline must equal the
    // measured counts exactly, so every burn-down is locked in.
    if strict_ratchet {
        let drift = report::ratchet_drift(&analysis);
        if !drift.is_empty() {
            println!("\nFAIL (--strict-ratchet): lint_baseline.json drifted from reality:");
            for line in &drift {
                println!("  - {line}");
            }
            return Ok(false);
        }
    }
    Ok(analysis.passed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_precedence_is_override_then_run_time_then_build_time() {
        let built_in = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..");
        assert_eq!(
            workspace_root(Some("fixture".into()), Some("copy/crates/lint".into())),
            PathBuf::from("fixture")
        );
        assert_eq!(
            workspace_root(None, Some("copy/crates/lint".into())),
            PathBuf::from("copy/crates/lint/../..")
        );
        assert_eq!(workspace_root(None, None), built_in);
    }
}
