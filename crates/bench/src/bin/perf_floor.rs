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
//!   sweep must beat the serial one by at least `min_sweep_speedup`.
//!   `workers` and `speedup` are read only from the single `"sweep"`
//!   object, each exactly once. On
//!   a one-core runner (`workers == 1`) the check is skipped and says
//!   so — a capped fan-out is an environment fact, not a regression,
//!   and the report now records the worker count so nobody mistakes
//!   one for the other again.
//!
//! The floor file is committed and only ever tightened deliberately;
//! this binary never rewrites it. Each floor key must appear in it
//! exactly once.
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

/// The value of `key` in `json`, which must be a complete array or
/// object opening with `open`: fails unless the key appears exactly once.
fn section<'a>(json: &'a str, key: &str, open: char) -> Result<&'a str, String> {
    let needle = format!("\"{key}\":");
    let (Some(at), 1) = (json.find(&needle), json.matches(&needle).count()) else {
        return Err(format!("expected exactly one \"{key}\" key"));
    };
    let value = json[at + needle.len()..].trim_start();
    let len = bracketed_len(value)
        .filter(|_| value.starts_with(open))
        .ok_or_else(|| format!("\"{key}\" is not a complete `{open}` value"))?;
    Ok(&value[..len])
}

/// The number for `key` in `json`: fails unless the key appears exactly
/// once and holds a number.
fn single_number(json: &str, key: &str) -> Result<f64, String> {
    let keys = json.matches(&format!("\"{key}\":")).count();
    match (keys, &numbers_for(json, key)[..]) {
        (1, &[value]) => Ok(value),
        (0, _) => Err(format!("missing \"{key}\"")),
        (1, _) => Err(format!("\"{key}\" is not a number")),
        (n, _) => Err(format!("\"{key}\" appears {n} times, expected once")),
    }
}

/// The sweep's `(workers, speedup)`, read only from the report's single
/// `"sweep"` object, so a number of the same name in another section can
/// neither enable nor satisfy the speed-up floor.
fn sweep_stats(bench: &str) -> Result<(f64, f64), String> {
    let sweep = section(bench, "sweep", '{')?;
    Ok((
        single_number(sweep, "workers")?,
        single_number(sweep, "speedup")?,
    ))
}

/// The `events_per_sec` of each row of the report's `"scenarios"` array,
/// in row order. Fails unless the report has exactly one such array and
/// every row carries exactly one rate, so rates elsewhere in the report
/// can neither add nor mask a floor.
fn scenario_rates(bench: &str) -> Result<Vec<f64>, String> {
    let array = section(bench, "scenarios", '[')?;
    let mut rest = &array[1..array.len() - 1];
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

fn main() -> ExitCode {
    let bench_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_microsim.json".to_owned());
    let floor_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "bench_floor.json".to_owned());

    let bench = std::fs::read_to_string(&bench_path).expect("bench report is readable");
    let floor = std::fs::read_to_string(&floor_path).expect("floor file is readable");

    println!("Performance floor ({bench_path} vs {floor_path}):\n");
    let read = || -> Result<_, String> {
        let floor_number =
            |key| single_number(&floor, key).map_err(|p| format!("{floor_path}: {p}"));
        let in_bench = |p: String| format!("{bench_path}: {p}");
        Ok((
            floor_number("min_events_per_sec")?,
            floor_number("min_sweep_speedup")?,
            scenario_rates(&bench).map_err(in_bench)?,
            sweep_stats(&bench).map_err(in_bench)?,
        ))
    };
    let (min_events_per_sec, min_sweep_speedup, rates, (workers, speedup)) = match read() {
        Ok(read) => read,
        Err(problem) => {
            println!("  {problem}\n\nfloor check FAILED");
            return ExitCode::FAILURE;
        }
    };

    let mut failures = 0usize;
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

    const SWEEP: &str =
        r#""sweep": {"points": 8, "workers": 2, "speedup": 1.9, "worker_utilisation": [1.0, 1.0]}"#;

    #[test]
    fn reads_workers_and_speedup_from_the_sweep_object_only() {
        // Decoy sections before and after the sweep: read, their numbers
        // would enable the speed-up check or satisfy it.
        let bench = format!(
            "{{\"fleet\": {{\"workers\": 9, \"speedup\": 0.5}}, {SWEEP}, \
             \"planner\": {{\"speedup\": 99}}}}"
        );
        assert_eq!(sweep_stats(&bench), Ok((2.0, 1.9)));
    }

    #[test]
    fn rejects_a_sweep_with_missing_or_doubled_keys() {
        for bench in [
            r#"{"sweep": {"workers": 2}}"#,
            r#"{"sweep": {"speedup": 1.9}}"#,
            r#"{"sweep": {"workers": 2, "speedup": 1.9, "x": {"speedup": 3}}}"#,
            r#"{"sweep": {"workers": 2, "workers": 1, "speedup": 1.9}}"#,
            r#"{"sweep": {"workers": "two", "speedup": 1.9}}"#,
            r#"{"sweep": [2, 1.9]}"#,
            r#"{"fleet": {"workers": 2, "speedup": 1.9}}"#,
            r#"{"sweep": {"workers": 2, "speedup": 1.9}, "again": {"sweep": {}}}"#,
        ] {
            assert!(sweep_stats(bench).is_err(), "{bench}");
        }
    }

    #[test]
    fn floor_keys_must_appear_exactly_once() {
        let floor = r#"{"min_events_per_sec": 2500000, "min_sweep_speedup": 1.5}"#;
        assert_eq!(single_number(floor, "min_sweep_speedup"), Ok(1.5));
        let doubled = r#"{"min_sweep_speedup": 1.5, "old": {"min_sweep_speedup": 0.1}}"#;
        assert!(single_number(doubled, "min_sweep_speedup")
            .unwrap_err()
            .contains("2 times"));
        assert!(single_number(floor, "min_speedup")
            .unwrap_err()
            .contains("missing"));
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
