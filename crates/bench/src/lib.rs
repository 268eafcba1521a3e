//! Shared helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `README.md` for the index) and prints it as plain text plus CSV.
//! Figures 7 and 8 and the fleet, lifecycle, planner, overload and
//! resilience studies honour the `JUNKYARD_FULL=1` environment variable
//! to run at the paper's full scale instead of the default quick
//! configuration.
//!
//! [`profiler`] holds the wall-clock stage profiler that `perf_report`
//! times its phases with. This crate is the only one the lint gate lets
//! read a wall clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profiler;

use junkyard_core::report::{Chart, Table};

/// `true` when the user asked for full-scale (paper-sized) experiment runs.
#[must_use]
pub fn full_scale() -> bool {
    std::env::var("JUNKYARD_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Prints a table as text and CSV.
pub fn emit_table(table: &Table) {
    println!("{table}");
    println!("--- CSV ---\n{}", table.to_csv());
}

/// Prints a chart as text and CSV.
pub fn emit_chart(chart: &Chart) {
    println!("{chart}");
    println!("--- CSV ---\n{}", chart.to_csv());
}

#[cfg(test)]
mod tests {
    #[test]
    fn full_scale_defaults_to_false() {
        // The variable is not set in the test environment.
        if std::env::var("JUNKYARD_FULL").is_err() {
            assert!(!super::full_scale());
        }
    }
}
