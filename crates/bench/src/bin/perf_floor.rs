//! Ratchet-style performance floor: checks a freshly generated
//! `BENCH_microsim.json` against the committed `bench_floor.json` and
//! fails the build when the engine slips below the floor.
//!
//! Two checks, both calibrated with wide headroom so only a real
//! regression (or a genuinely broken fan-out) trips them:
//!
//! * every fixed scenario must sustain at least `min_events_per_sec`
//!   engine events per wall second. Rates are read only from the rows of
//!   the `"scenarios"` array, and every row must carry exactly one, so a
//!   new report section can neither add nor mask a floor;
//! * when the sweep actually fanned out (`workers >= 2`), the threaded
//!   sweep must beat the serial one by at least `min_sweep_speedup`. On
//!   a one-core runner (`workers == 1`) the check is skipped and says
//!   so — a capped fan-out is an environment fact, not a regression,
//!   and the report now records the worker count so nobody mistakes
//!   one for the other again.
//!
//! The floor file is committed and only ever tightened deliberately;
//! this binary never rewrites it.
//!
//! Usage: `cargo run --release --bin perf_floor [BENCH_microsim.json [bench_floor.json]]`

use std::process::ExitCode;

/// Every number appearing as `"key": <number>` in `json`, in order.
fn numbers_for(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let value: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+'))
            .collect();
        if let Ok(number) = value.parse::<f64>() {
            out.push(number);
        }
    }
    out
}

/// Byte length of the JSON array or object that `value` starts with,
/// matched bracket for bracket outside strings; `None` when `value` does
/// not start with one or it is unterminated.
fn bracketed_len(value: &str) -> Option<usize> {
    if !value.starts_with(['[', '{']) {
        return None;
    }
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, c) in value.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' | '{' => depth += 1,
            ']' | '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// The `events_per_sec` of each row of the report's `"scenarios"` array,
/// in row order. Fails unless the report has exactly one such array and
/// every row carries exactly one rate, so rates elsewhere in the report
/// can neither add nor mask a floor.
fn scenario_rates(bench: &str) -> Result<Vec<f64>, String> {
    let needle = "\"scenarios\":";
    let (Some(at), 1) = (bench.find(needle), bench.matches(needle).count()) else {
        return Err("expected exactly one \"scenarios\" key".to_owned());
    };
    let array = bench[at + needle.len()..].trim_start();
    let len = bracketed_len(array)
        .filter(|_| array.starts_with('['))
        .ok_or("\"scenarios\" is not a complete array")?;
    let mut rest = &array[1..len - 1];
    let mut rates = Vec::new();
    loop {
        rest = rest.trim_start_matches(|c: char| c.is_whitespace() || c == ',');
        if rest.is_empty() {
            break;
        }
        let row = rates.len();
        let row_len = bracketed_len(rest)
            .filter(|_| rest.starts_with('{'))
            .ok_or_else(|| format!("scenario row {row} is not an object"))?;
        match numbers_for(&rest[..row_len], "events_per_sec")[..] {
            [rate] => rates.push(rate),
            ref found => {
                return Err(format!(
                    "scenario row {row} has {} events_per_sec values, expected 1",
                    found.len()
                ))
            }
        }
        rest = &rest[row_len..];
    }
    if rates.is_empty() {
        return Err("\"scenarios\" has no rows".to_owned());
    }
    Ok(rates)
}

/// The first number for `key`, or an explicit failure naming the file.
fn number_for(json: &str, key: &str, file: &str) -> f64 {
    *numbers_for(json, key)
        .first()
        .unwrap_or_else(|| panic!("{file} is missing \"{key}\""))
}

fn main() -> ExitCode {
    let bench_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_microsim.json".to_owned());
    let floor_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "bench_floor.json".to_owned());

    let bench = std::fs::read_to_string(&bench_path).expect("bench report is readable");
    let floor = std::fs::read_to_string(&floor_path).expect("floor file is readable");

    let min_events_per_sec = number_for(&floor, "min_events_per_sec", &floor_path);
    let min_sweep_speedup = number_for(&floor, "min_sweep_speedup", &floor_path);

    let mut failures = 0usize;
    println!("Performance floor ({bench_path} vs {floor_path}):\n");

    let rates = match scenario_rates(&bench) {
        Ok(rates) => rates,
        Err(problem) => {
            println!("  {bench_path}: {problem}\n\nfloor check FAILED");
            return ExitCode::FAILURE;
        }
    };
    for (i, rate) in rates.iter().enumerate() {
        let ok = *rate >= min_events_per_sec;
        if !ok {
            failures += 1;
        }
        println!(
            "  scenario {i}: {rate:.0} events/sec (floor {min_events_per_sec:.0}) {}",
            if ok { "ok" } else { "FAIL" },
        );
    }

    let workers = number_for(&bench, "workers", &bench_path);
    let speedup = number_for(&bench, "speedup", &bench_path);
    if workers >= 2.0 {
        let ok = speedup >= min_sweep_speedup;
        if !ok {
            failures += 1;
        }
        println!(
            "  sweep: {speedup:.2}x over {workers:.0} workers (floor {min_sweep_speedup:.2}x) {}",
            if ok { "ok" } else { "FAIL" },
        );
    } else {
        println!(
            "  sweep: {speedup:.2}x — skipped, fan-out capped at {workers:.0} worker \
             (one-core runner)",
        );
    }

    if failures > 0 {
        println!("\n{failures} floor check(s) FAILED");
        return ExitCode::FAILURE;
    }
    println!("\nall floor checks passed");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: &str = r#""scenarios": [
    {"app": "A", "events_per_sec": 100, "median_ms": 1.5},
    {"app": "B {with [brackets]}", "events_per_sec": 2e3}
  ]"#;

    #[test]
    fn reads_one_rate_per_scenario_row() {
        let bench = format!("{{\"bench\": \"x\", {ROWS}}}");
        assert_eq!(scenario_rates(&bench), Ok(vec![100.0, 2_000.0]));
    }

    #[test]
    fn ignores_rates_in_other_sections() {
        // A decoy section before and after the scenarios: its rates would
        // add a row (or, set high, mask a slow one) if read.
        let bench = format!(
            "{{\"decoy\": [{{\"events_per_sec\": 1}}], {ROWS}, \
             \"after\": {{\"events_per_sec\": 9e9}}}}"
        );
        assert_eq!(scenario_rates(&bench), Ok(vec![100.0, 2_000.0]));
    }

    #[test]
    fn rejects_rows_without_exactly_one_rate() {
        let missing = r#"{"scenarios": [{"events_per_sec": 1}, {"app": "B"}]}"#;
        assert!(scenario_rates(missing).unwrap_err().contains("row 1 has 0"));
        let doubled = r#"{"scenarios": [{"events_per_sec": 1, "x": {"events_per_sec": 2}}]}"#;
        assert!(scenario_rates(doubled).unwrap_err().contains("row 0 has 2"));
    }

    #[test]
    fn rejects_missing_empty_or_ambiguous_scenarios() {
        for bench in [
            r#"{"sweep": {"events_per_sec": 1}}"#,
            r#"{"scenarios": []}"#,
            r#"{"scenarios": [{"events_per_sec": 1}"#,
            r#"{"scenarios": [], "x": {"scenarios": [{"events_per_sec": 1}]}}"#,
        ] {
            assert!(scenario_rates(bench).is_err(), "{bench}");
        }
    }
}
