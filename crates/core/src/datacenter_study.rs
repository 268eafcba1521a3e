//! The datacenter-scale study of Section 5.3: PUE (Eq. 14) and the
//! facility-level CCI projections of Table 4.

use junkyard_carbon::cci::{CciCalculator, CciError};
use junkyard_carbon::operational::NetworkProfile;
use junkyard_carbon::units::{CarbonIntensity, DataRate, TimeSpan};
use junkyard_cluster::datacenter::DatacenterDesign;
use junkyard_cluster::presets;
use junkyard_devices::benchmark::Benchmark;
use junkyard_devices::power::LoadProfile;

use crate::report::Table;

/// Service lifetime of both designs, years (Section 5.3).
const LIFETIME_YEARS: f64 = 3.0;

/// Comparison of the two 50 MW designs of Section 5.3.
#[derive(Debug, Clone)]
pub struct DatacenterStudy {
    grid: CarbonIntensity,
}

impl DatacenterStudy {
    /// Creates the study with the paper's parameters: three-year lifespan on
    /// the California mix.
    #[must_use]
    pub fn new() -> Self {
        Self {
            grid: CarbonIntensity::from_grams_per_kwh(257.0),
        }
    }

    /// The PUE comparison table (server ≈ 1.31, phones ≈ 1.32 in the paper).
    #[must_use]
    pub fn pue_table(&self) -> Table {
        let mut table = Table::new(
            "50 MW datacenter PUE",
            vec![
                "design".into(),
                "units".into(),
                "IT MW".into(),
                "PUE".into(),
            ],
        );
        for design in [
            DatacenterDesign::paper_server_datacenter(),
            DatacenterDesign::paper_phone_datacenter(),
        ] {
            table.push_row(vec![
                design.name().to_owned(),
                design.unit_count().to_string(),
                format!("{:.1}", design.it_power().value() / 1e6),
                format!("{:.2}", design.pue().value()),
            ]);
        }
        table
    }

    /// Builds the per-unit CCI calculator for one design, applying its PUE
    /// to the operational terms as in Eq. 15.
    fn unit_calculator(&self, benchmark: Benchmark, phones: bool) -> CciCalculator {
        let profile = LoadProfile::light_medium();
        let (cloudlet, design) = if phones {
            (
                presets::pixel_cloudlet(),
                DatacenterDesign::paper_phone_datacenter(),
            )
        } else {
            (
                presets::poweredge_baseline(),
                DatacenterDesign::paper_server_datacenter(),
            )
        };
        let throughput = cloudlet
            .aggregate_throughput(benchmark, &profile)
            .expect("catalog devices have all four scores");
        let mut calc = CciCalculator::new(benchmark.op_unit())
            .embodied(cloudlet.embodied_bill())
            .average_power(cloudlet.average_power(&profile))
            .grid(self.grid)
            .network(NetworkProfile::wifi(DataRate::from_gigabits_per_sec(0.1)))
            .throughput(throughput)
            .operational_scale(cloudlet.operational_scale())
            .pue(design.pue().value());
        if let Some((per_round, pack_lifetime)) = cloudlet.battery_schedule(&profile) {
            calc = calc.battery_replacement(per_round, pack_lifetime);
        }
        calc
    }

    /// The Table 4 projection: datacenter-scale CCI per unit of work for the
    /// PowerEdge and smartphone designs across the paper's three benchmarks.
    ///
    /// # Errors
    ///
    /// Propagates CCI errors.
    pub fn cci_table(&self) -> Result<Table, CciError> {
        let benchmarks = [Benchmark::Sgemm, Benchmark::PdfRender, Benchmark::Dijkstra];
        let mut table = Table::new(
            "Datacenter-scale three-year CCI (mgCO2e per op)",
            vec![
                "design".into(),
                "SGEMM (mg/gflop)".into(),
                "PDF Render (mg/Mpixel)".into(),
                "Dijkstra (mg/MTE)".into(),
            ],
        );
        for phones in [false, true] {
            let mut row = vec![if phones {
                "Smartphone (54x Pixel 3A clusters)".to_owned()
            } else {
                "PowerEdge R740".to_owned()
            }];
            for benchmark in benchmarks {
                let cci = self
                    .unit_calculator(benchmark, phones)
                    .cci_at(TimeSpan::from_years(LIFETIME_YEARS))?;
                row.push(format!("{:.3}", cci.milligrams_per_op()));
            }
            table.push_row(row);
        }
        Ok(table)
    }

    /// Carbon-efficiency advantage (server CCI divided by smartphone CCI)
    /// for one benchmark at the configured lifetime.
    ///
    /// # Errors
    ///
    /// Propagates CCI errors.
    pub fn smartphone_advantage(&self, benchmark: Benchmark) -> Result<f64, CciError> {
        let server = self
            .unit_calculator(benchmark, false)
            .cci_at(TimeSpan::from_years(LIFETIME_YEARS))?;
        let phones = self
            .unit_calculator(benchmark, true)
            .cci_at(TimeSpan::from_years(LIFETIME_YEARS))?;
        Ok(server.grams_per_op() / phones.grams_per_op())
    }
}

impl Default for DatacenterStudy {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pue_table_matches_paper_band() {
        let table = DatacenterStudy::new().pue_table();
        assert_eq!(table.rows().len(), 2);
        let server_pue: f64 = table.rows()[0][3].parse().unwrap();
        let phone_pue: f64 = table.rows()[1][3].parse().unwrap();
        assert!((server_pue - 1.31).abs() < 0.05);
        assert!((phone_pue - 1.32).abs() < 0.05);
        assert!(phone_pue >= server_pue);
    }

    #[test]
    fn smartphone_design_wins_every_benchmark() {
        let study = DatacenterStudy::new();
        for benchmark in [Benchmark::Sgemm, Benchmark::PdfRender, Benchmark::Dijkstra] {
            let advantage = study.smartphone_advantage(benchmark).unwrap();
            assert!(advantage > 1.0, "{benchmark}: advantage {advantage}");
        }
    }

    #[test]
    fn dijkstra_advantage_is_the_largest() {
        // Table 4's pattern: the gap is widest where the phones' relative
        // throughput is strongest per watt (Dijkstra/PDF) and narrowest for
        // SGEMM.
        let study = DatacenterStudy::new();
        let sgemm = study.smartphone_advantage(Benchmark::Sgemm).unwrap();
        let dijkstra = study.smartphone_advantage(Benchmark::Dijkstra).unwrap();
        assert!(dijkstra > sgemm, "dijkstra {dijkstra} vs sgemm {sgemm}");
    }

    #[test]
    fn cci_table_renders_two_rows() {
        let table = DatacenterStudy::new().cci_table().unwrap();
        assert_eq!(table.rows().len(), 2);
        assert!(table.to_csv().contains("PowerEdge"));
    }
}
