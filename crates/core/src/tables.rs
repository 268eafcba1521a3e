//! The paper's data tables and capability trends rendered as reports:
//! Figure 1 (phone capability vs T4g instances), Table 1 (GeekBench + N),
//! Table 2 (power vs load) and Table 3 (component carbon + reuse factor).

use junkyard_devices::benchmark::Benchmark;
use junkyard_devices::catalog;
use junkyard_devices::components::{Component, ComponentBreakdown};
use junkyard_devices::power::LoadProfile;
use junkyard_devices::release_db;

use crate::report::{Chart, SeriesLine, Table};

/// Figure 1: yearly mean/min/max phone capability against T4g reference
/// lines, one chart per panel (`performance`, `cores`, `memory`).
#[must_use]
pub fn figure1_charts() -> Vec<Chart> {
    let summaries = release_db::yearly_summaries();
    let years: Vec<f64> = summaries.iter().map(|s| f64::from(s.year())).collect();
    let line = |label: &str, values: Vec<f64>| {
        SeriesLine::new(label, years.iter().copied().zip(values).collect())
    };

    let mut performance = Chart::new(
        "Phone performance vs T4g",
        "year",
        "GeekBench (Core i3 = 1.0)",
    )
    .with_line(line(
        "mean",
        summaries.iter().map(|s| s.performance_mean()).collect(),
    ))
    .with_line(line(
        "min",
        summaries.iter().map(|s| s.performance_min()).collect(),
    ))
    .with_line(line(
        "max",
        summaries.iter().map(|s| s.performance_max()).collect(),
    ));
    let mut cores = Chart::new("Phone cores vs T4g", "year", "cores")
        .with_line(line(
            "mean",
            summaries.iter().map(|s| s.cores_mean()).collect(),
        ))
        .with_line(line(
            "min",
            summaries.iter().map(|s| f64::from(s.cores_min())).collect(),
        ))
        .with_line(line(
            "max",
            summaries.iter().map(|s| f64::from(s.cores_max())).collect(),
        ));
    let mut memory = Chart::new("Phone memory vs T4g", "year", "GiB")
        .with_line(line(
            "min config mean",
            summaries
                .iter()
                .map(|s| s.memory_min_config_mean())
                .collect(),
        ))
        .with_line(line(
            "max config mean",
            summaries
                .iter()
                .map(|s| s.memory_max_config_mean())
                .collect(),
        ));

    for instance in release_db::t4g_instances() {
        let flat =
            |v: f64| SeriesLine::new(instance.name(), years.iter().map(|y| (*y, v)).collect());
        performance.push_line(flat(instance.performance()));
        cores.push_line(flat(f64::from(instance.vcpus())));
        memory.push_line(flat(instance.memory_gib()));
    }
    vec![performance, cores, memory]
}

/// Table 1: GeekBench single/multi-core scores plus the number of devices
/// needed to match the PowerEdge baseline.
#[must_use]
pub fn table1() -> Table {
    let baseline = catalog::poweredge_r740();
    let mut headers = vec!["device".to_owned(), "year".to_owned()];
    for benchmark in Benchmark::ALL {
        headers.push(format!("{benchmark} single"));
        headers.push(format!("{benchmark} multi"));
        headers.push(format!("{benchmark} N"));
    }
    let mut table = Table::new(
        "GeekBench performance and server-equivalence (Table 1)",
        headers,
    );
    for device in catalog::table_devices() {
        let mut row = vec![device.name().to_owned(), device.release_year().to_string()];
        for benchmark in Benchmark::ALL {
            let score = device
                .benchmarks()
                .get(benchmark)
                .expect("catalog is complete");
            row.push(format!("{:.3}", score.single_core()));
            row.push(format!("{:.1}", score.multi_core()));
            let n = device
                .benchmarks()
                .devices_to_match(baseline.benchmarks(), benchmark)
                .expect("catalog is complete");
            row.push(n.to_string());
        }
        table.push_row(row);
    }
    table
}

/// Table 2: power draw at the measured load points and the light-medium
/// average.
#[must_use]
pub fn table2() -> Table {
    let profile = LoadProfile::light_medium();
    let mut table = Table::new(
        "Power versus CPU load (Table 2)",
        vec![
            "device".into(),
            "P100 (W)".into(),
            "P50 (W)".into(),
            "P10 (W)".into(),
            "Pidle (W)".into(),
            "Pavg (W)".into(),
        ],
    );
    for device in catalog::table_devices() {
        let power = device.power();
        table.push_row(vec![
            device.name().to_owned(),
            format!("{:.1}", power.at_full_load().value()),
            format!("{:.1}", power.at_50_percent().value()),
            format!("{:.1}", power.at_10_percent().value()),
            format!("{:.1}", power.idle().value()),
            format!("{:.2}", device.average_power(&profile).value()),
        ]);
    }
    table
}

/// Table 3: the Nexus 4 component carbon attribution, plus the reuse factor
/// of the paper's compute-node scenario.
#[must_use]
pub fn table3() -> (Table, f64) {
    let breakdown = ComponentBreakdown::nexus_4();
    let mut table = Table::new(
        "Nexus 4 component embodied carbon (Table 3)",
        vec![
            "component".into(),
            "kgCO2e".into(),
            "fraction".into(),
            "reused as compute node".into(),
        ],
    );
    let reused_role = ComponentBreakdown::compute_node_role();
    for component in Component::ALL {
        let carbon = breakdown.carbon_of(component);
        table.push_row(vec![
            component.to_string(),
            format!("{:.1}", carbon.kilograms()),
            format!(
                "{:.1}%",
                breakdown.fraction_of(component).unwrap_or(0.0) * 100.0
            ),
            if reused_role.contains(&component) {
                "yes"
            } else {
                "no"
            }
            .to_owned(),
        ]);
    }
    let reuse_factor = breakdown
        .reuse_factor(&reused_role)
        .factor()
        .expect("the breakdown is non-empty");
    (table, reuse_factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_has_three_panels_with_t4g_lines() {
        let charts = figure1_charts();
        assert_eq!(charts.len(), 3);
        for chart in &charts {
            assert!(chart.lines().len() >= 7, "{chart}");
            assert!(chart.line("t4g.2xlarge").is_some());
        }
    }

    #[test]
    fn table1_has_five_devices_and_n_columns() {
        let table = table1();
        assert_eq!(table.rows().len(), 5);
        assert_eq!(table.rows()[0].len(), 2 + 4 * 3);
        // The Pixel 3A row carries the paper's N = 54 for SGEMM.
        let pixel = table.rows().iter().find(|r| r[0] == "Pixel 3A").unwrap();
        assert_eq!(pixel[4], "54");
    }

    #[test]
    fn table2_average_power_column_matches_paper() {
        let table = table2();
        let poweredge = &table.rows()[0];
        assert_eq!(poweredge[0], "PowerEdge R740");
        let pavg: f64 = poweredge[5].parse().unwrap();
        assert!((pavg - 308.7).abs() < 1.0);
    }

    #[test]
    fn table3_reuse_factor_is_about_085() {
        let (table, rf) = table3();
        assert_eq!(table.rows().len(), 7);
        assert!(rf > 0.80 && rf < 0.90, "rf {rf}");
    }
}
