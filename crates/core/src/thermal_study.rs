//! The thermal study of Figure 3: the Styrofoam-box stress test under full
//! load and under the light-medium duty cycle, plus the derived cooling plan
//! for larger cloudlets.

use junkyard_carbon::units::Watts;
use junkyard_devices::power::LoadProfile;
use junkyard_thermal::cooling::{CoolingPlan, ServerFan};
use junkyard_thermal::sim::{StressTest, ThermalTimeline};

use crate::report::{Chart, SeriesLine, Table};

/// Result of the two-scenario thermal study.
#[derive(Debug, Clone)]
pub struct ThermalStudyResult {
    full_load: ThermalTimeline,
    light_medium: ThermalTimeline,
    full_load_thermal_power_per_device: Watts,
    light_medium_thermal_power_per_device: Watts,
}

/// Runs the paper's thermal experiment: four Nexus 4s and a Nexus 5 in the
/// sealed box, once at 100 % load and once on the light-medium duty cycle.
#[must_use]
pub fn run_thermal_study() -> ThermalStudyResult {
    let run = |profile: LoadProfile| {
        let test = StressTest::paper_setup(profile);
        let timeline = test.run();
        let per_device = timeline
            .thermal_power(test.enclosure(), &test.models())
            .value()
            / test.phones().len() as f64;
        (timeline, Watts::new(per_device))
    };
    let (full_load, full_power) = run(LoadProfile::full_load());
    let (light_medium, light_power) = run(LoadProfile::light_medium());
    ThermalStudyResult {
        full_load,
        light_medium,
        full_load_thermal_power_per_device: full_power,
        light_medium_thermal_power_per_device: light_power,
    }
}

impl ThermalStudyResult {
    /// The light-medium timeline (Figure 3b).
    #[must_use]
    pub fn light_medium(&self) -> &ThermalTimeline {
        &self.light_medium
    }

    /// Renders one scenario as a chart: air temperature plus each phone's
    /// internal temperature over time.
    #[must_use]
    pub fn temperature_chart(&self, full_load: bool) -> Chart {
        let timeline = if full_load {
            &self.full_load
        } else {
            &self.light_medium
        };
        let label = if full_load {
            "100% load"
        } else {
            "light-medium"
        };
        let step_min = timeline.step().minutes();
        let mut chart = Chart::new(
            format!("Thermal stress test — {label}"),
            "time (minutes)",
            "temperature (C)",
        );
        chart.push_line(SeriesLine::new(
            "Air Temp",
            timeline
                .air_temperatures()
                .iter()
                .enumerate()
                .map(|(i, t)| (i as f64 * step_min, *t))
                .collect(),
        ));
        for phone in timeline.phones() {
            chart.push_line(SeriesLine::new(
                phone.label(),
                phone
                    .temperatures()
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (i as f64 * step_min, *t))
                    .collect(),
            ));
        }
        chart
    }

    /// Summary table: shutdowns, peak temperatures and thermal power for the
    /// two scenarios, plus the 256-phone cooling plan of Section 4.1.
    #[must_use]
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(
            "Thermal stress test summary",
            vec![
                "scenario".into(),
                "shutdowns".into(),
                "peak air C".into(),
                "thermal W/device".into(),
            ],
        );
        table.push_row(vec![
            "100% load".into(),
            self.full_load.shutdown_count().to_string(),
            format!("{:.1}", self.full_load.peak_air_temperature()),
            format!("{:.2}", self.full_load_thermal_power_per_device.value()),
        ]);
        table.push_row(vec![
            "light-medium".into(),
            self.light_medium.shutdown_count().to_string(),
            format!("{:.1}", self.light_medium.peak_air_temperature()),
            format!("{:.2}", self.light_medium_thermal_power_per_device.value()),
        ]);
        table
    }

    /// The Section 4.1 scale-up estimate: cooling plan for a 256-phone
    /// cloudlet at the measured full-load thermal power (two fans in the
    /// paper).
    #[must_use]
    pub fn cloudlet_cooling_plan(&self) -> CoolingPlan {
        CoolingPlan::for_cluster(
            ServerFan::paper_cots_fan(),
            256,
            self.full_load_thermal_power_per_device,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_reproduces_the_papers_qualitative_findings() {
        let result = run_thermal_study();
        // (a) Nexus 4s protect themselves under sustained full load.
        assert!(result.full_load.shutdown_count() >= 1);
        // (c) performance/temperature is worse at full load than light-medium.
        assert!(
            result.full_load.peak_air_temperature() > result.light_medium().peak_air_temperature()
        );
        // (d) thermal power stays below the 5 W TDP.
        assert!(result.full_load_thermal_power_per_device.value() < 5.0);
        assert!(
            result.light_medium_thermal_power_per_device.value()
                < result.full_load_thermal_power_per_device.value()
        );
    }

    #[test]
    fn cooling_plan_needs_one_or_two_fans() {
        let plan = run_thermal_study().cloudlet_cooling_plan();
        assert!(
            plan.fans_needed() >= 1 && plan.fans_needed() <= 2,
            "{}",
            plan.fans_needed()
        );
    }

    #[test]
    fn charts_and_table_render() {
        let result = run_thermal_study();
        let chart = result.temperature_chart(true);
        assert_eq!(chart.lines().len(), 6); // air + 5 phones
        assert!(chart.line("Air Temp").is_some());
        let table = result.summary_table();
        assert_eq!(table.rows().len(), 2);
    }
}
