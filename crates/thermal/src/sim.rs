//! Time-stepping thermal stress-test simulation (Figure 3) and the Eq. 9
//! thermal-power estimate.

use junkyard_carbon::units::{TimeSpan, Watts};
use junkyard_devices::power::{LoadProfile, PowerCurve};

use crate::model::{Enclosure, PhoneThermalModel, SILICON_SPECIFIC_HEAT};

/// One phone placed in the enclosure for a stress test.
#[derive(Debug, Clone, PartialEq)]
pub struct TestPhone {
    label: String,
    thermal: PhoneThermalModel,
    power: PowerCurve,
}

impl TestPhone {
    /// Creates a test phone from its thermal model and power curve.
    #[must_use]
    pub fn new(label: impl Into<String>, thermal: PhoneThermalModel, power: PowerCurve) -> Self {
        Self {
            label: label.into(),
            thermal,
            power,
        }
    }

    /// Display label of the phone.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The phone's thermal model.
    #[must_use]
    pub fn thermal(&self) -> &PhoneThermalModel {
        &self.thermal
    }
}

/// Temperature and performance trajectory of one phone during a test.
#[derive(Debug, Clone, PartialEq)]
pub struct PhoneTimeline {
    label: String,
    temperatures: Vec<f64>,
    job_latencies: Vec<Option<f64>>,
    shutdown_at: Option<TimeSpan>,
}

impl PhoneTimeline {
    /// Display label of the phone.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Internal temperature at each sample, °C.
    #[must_use]
    pub fn temperatures(&self) -> &[f64] {
        &self.temperatures
    }

    /// When the phone shut itself off, if it did.
    #[must_use]
    pub fn shutdown_at(&self) -> Option<TimeSpan> {
        self.shutdown_at
    }
}

/// Full result of a thermal stress test.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalTimeline {
    step: TimeSpan,
    air_temperatures: Vec<f64>,
    phones: Vec<PhoneTimeline>,
}

impl ThermalTimeline {
    /// Sampling step of the timelines.
    #[must_use]
    pub fn step(&self) -> TimeSpan {
        self.step
    }

    /// Enclosed-air temperature at each sample, °C.
    #[must_use]
    pub fn air_temperatures(&self) -> &[f64] {
        &self.air_temperatures
    }

    /// Per-phone trajectories, in the order the phones were supplied.
    #[must_use]
    pub fn phones(&self) -> &[PhoneTimeline] {
        &self.phones
    }

    /// Peak air temperature, °C.
    #[must_use]
    pub fn peak_air_temperature(&self) -> f64 {
        self.air_temperatures
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Number of phones that shut themselves off during the test.
    #[must_use]
    pub fn shutdown_count(&self) -> usize {
        self.phones
            .iter()
            .filter(|p| p.shutdown_at().is_some())
            .count()
    }

    /// The paper's Eq. 9 estimate of total thermal power, computed from the
    /// warming rates of the air and the phones over the window ending just
    /// before the first shutdown (or the whole test if nothing shut down).
    ///
    /// Returns the total across all devices; divide by the phone count for
    /// the per-device figure the paper quotes (≈2.6 W at full load,
    /// ≈1.2 W light-medium for Nexus-class phones).
    #[must_use]
    pub fn thermal_power(&self, enclosure: &Enclosure, models: &[PhoneThermalModel]) -> Watts {
        let first_shutdown_index = self
            .phones
            .iter()
            .filter_map(|p| p.shutdown_at())
            .map(|t| (t.seconds() / self.step.seconds()).floor() as usize)
            .min()
            .unwrap_or(self.air_temperatures.len().saturating_sub(1))
            .max(1);
        let window = TimeSpan::from_secs(self.step.seconds() * first_shutdown_index as f64);

        let air_delta = self.air_temperatures[first_shutdown_index] - self.air_temperatures[0];
        let air_term = enclosure.air_mass_kg() * crate::model::AIR_SPECIFIC_HEAT * air_delta
            / window.seconds();

        let phone_term: f64 = self
            .phones
            .iter()
            .zip(models)
            .map(|(timeline, model)| {
                let delta = timeline.temperatures()
                    [first_shutdown_index.min(timeline.temperatures().len() - 1)]
                    - timeline.temperatures()[0];
                SILICON_SPECIFIC_HEAT * model.silicon_mass_kg() * delta / window.seconds()
            })
            .sum();

        Watts::new(air_term + phone_term)
    }
}

/// A thermal stress test: a set of phones in an enclosure running a duty
/// cycle for a fixed duration.
#[derive(Debug, Clone, PartialEq)]
pub struct StressTest {
    enclosure: Enclosure,
    phones: Vec<TestPhone>,
    workload: LoadProfile,
    duration: TimeSpan,
    step: TimeSpan,
    base_job_latency: f64,
}

impl StressTest {
    /// Creates a stress test.
    ///
    /// # Panics
    ///
    /// Panics if no phones are supplied or the duration/step are not
    /// strictly positive.
    #[must_use]
    pub fn new(
        enclosure: Enclosure,
        phones: Vec<TestPhone>,
        workload: LoadProfile,
        duration: TimeSpan,
    ) -> Self {
        assert!(!phones.is_empty(), "a stress test needs at least one phone");
        assert!(duration.seconds() > 0.0, "duration must be positive");
        Self {
            enclosure,
            phones,
            workload,
            duration,
            step: TimeSpan::from_secs(5.0),
            base_job_latency: 5.0,
        }
    }

    /// The paper's experimental setup: four Nexus 4s and one Nexus 5 in the
    /// sealed Styrofoam box, running for 45 minutes.
    #[must_use]
    pub fn paper_setup(workload: LoadProfile) -> Self {
        let nexus4_curve = PowerCurve::from_measurements(
            Watts::new(0.7),
            Watts::new(1.0),
            Watts::new(2.7),
            Watts::new(3.6),
        );
        let nexus5_curve = PowerCurve::from_measurements(
            Watts::new(0.7),
            Watts::new(1.1),
            Watts::new(2.4),
            Watts::new(3.3),
        );
        let mut phones: Vec<TestPhone> = (0..4)
            .map(|i| {
                TestPhone::new(
                    format!("Nexus 4 #{}", i + 1),
                    PhoneThermalModel::nexus_4(),
                    nexus4_curve,
                )
            })
            .collect();
        phones.push(TestPhone::new(
            "Nexus 5",
            PhoneThermalModel::nexus_5(),
            nexus5_curve,
        ));
        Self::new(
            Enclosure::paper_styrofoam_box(),
            phones,
            workload,
            TimeSpan::from_minutes(45.0),
        )
    }

    /// Overrides the integration step.
    ///
    /// # Panics
    ///
    /// Panics if the step is not strictly positive.
    #[must_use]
    pub fn step(mut self, step: TimeSpan) -> Self {
        assert!(step.seconds() > 0.0, "step must be positive");
        self.step = step;
        self
    }

    /// The phones under test.
    #[must_use]
    pub fn phones(&self) -> &[TestPhone] {
        &self.phones
    }

    /// The enclosure used.
    #[must_use]
    pub fn enclosure(&self) -> &Enclosure {
        &self.enclosure
    }

    /// Thermal models of the phones, in order (convenience for
    /// [`ThermalTimeline::thermal_power`]).
    #[must_use]
    pub fn models(&self) -> Vec<PhoneThermalModel> {
        self.phones.iter().map(|p| *p.thermal()).collect()
    }

    /// Runs the simulation.
    #[must_use]
    pub fn run(&self) -> ThermalTimeline {
        let steps = (self.duration.seconds() / self.step.seconds()).ceil() as usize;
        let dt = self.step.seconds();
        let target_load = self.workload.average_load();
        let ambient = self.enclosure.ambient_temp();

        let mut air_temp = ambient;
        let mut phone_temps: Vec<f64> = vec![ambient; self.phones.len()];
        let mut alive: Vec<bool> = vec![true; self.phones.len()];
        let mut shutdowns: Vec<Option<TimeSpan>> = vec![None; self.phones.len()];

        let mut air_series = Vec::with_capacity(steps + 1);
        let mut temp_series: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); self.phones.len()];
        let mut latency_series: Vec<Vec<Option<f64>>> =
            vec![Vec::with_capacity(steps + 1); self.phones.len()];

        for step_index in 0..=steps {
            air_series.push(air_temp);
            let mut heat_into_air = 0.0;
            for (i, phone) in self.phones.iter().enumerate() {
                temp_series[i].push(phone_temps[i]);
                if !alive[i] {
                    latency_series[i].push(None);
                    // A dead phone still exchanges heat passively.
                    let flow = phone.thermal.conductance_to_air() * (phone_temps[i] - air_temp);
                    phone_temps[i] -= flow * dt / phone.thermal.heat_capacity();
                    heat_into_air += flow;
                    continue;
                }
                let performance = phone.thermal.performance_at(phone_temps[i]);
                let effective_load = (target_load * performance).clamp(0.0, 1.0);
                let electrical = phone.power.power_at(effective_load).value();
                latency_series[i].push(Some(self.base_job_latency / performance));

                let flow_to_air = phone.thermal.conductance_to_air() * (phone_temps[i] - air_temp);
                phone_temps[i] += (electrical - flow_to_air) * dt / phone.thermal.heat_capacity();
                heat_into_air += flow_to_air;

                if phone.thermal.should_shut_down(phone_temps[i]) {
                    alive[i] = false;
                    shutdowns[i] = Some(TimeSpan::from_secs(dt * step_index as f64));
                }
            }
            let loss = self.enclosure.conductance_to_ambient() * (air_temp - ambient);
            air_temp += (heat_into_air - loss) * dt / self.enclosure.heat_capacity();
        }

        let phones = self
            .phones
            .iter()
            .enumerate()
            .map(|(i, phone)| PhoneTimeline {
                label: phone.label.clone(),
                temperatures: std::mem::take(&mut temp_series[i]),
                job_latencies: std::mem::take(&mut latency_series[i]),
                shutdown_at: shutdowns[i],
            })
            .collect();

        ThermalTimeline {
            step: self.step,
            air_temperatures: air_series,
            phones,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_full_load() -> (StressTest, ThermalTimeline) {
        let test = StressTest::paper_setup(LoadProfile::full_load());
        let timeline = test.run();
        (test, timeline)
    }

    fn run_light_medium() -> (StressTest, ThermalTimeline) {
        let test = StressTest::paper_setup(LoadProfile::light_medium());
        let timeline = test.run();
        (test, timeline)
    }

    #[test]
    fn full_load_shuts_down_nexus_4s_but_not_nexus_5() {
        let (_, timeline) = run_full_load();
        let nexus4_shutdowns = timeline
            .phones()
            .iter()
            .filter(|p| p.label().starts_with("Nexus 4") && p.shutdown_at().is_some())
            .count();
        assert!(
            nexus4_shutdowns >= 1,
            "expected at least one Nexus 4 shutdown"
        );
        let nexus5 = timeline
            .phones()
            .iter()
            .find(|p| p.label() == "Nexus 5")
            .unwrap();
        assert!(nexus5.shutdown_at().is_none(), "Nexus 5 should survive");
    }

    #[test]
    fn shutdown_happens_near_the_observed_temperatures() {
        let (_, timeline) = run_full_load();
        for phone in timeline.phones() {
            if let Some(at) = phone.shutdown_at() {
                let index = (at.seconds() / timeline.step().seconds()) as usize;
                let internal = phone.temperatures()[index.min(phone.temperatures().len() - 1)];
                assert!(
                    (74.0..=82.0).contains(&internal),
                    "shutdown at {internal} °C"
                );
                let air =
                    timeline.air_temperatures()[index.min(timeline.air_temperatures().len() - 1)];
                assert!((32.0..=55.0).contains(&air), "air at shutdown {air} °C");
            }
        }
    }

    #[test]
    fn light_medium_stays_cooler_than_full_load() {
        let (_, full) = run_full_load();
        let (_, light) = run_light_medium();
        assert!(light.peak_air_temperature() < full.peak_air_temperature());
        // The paper's light-medium run also eventually trips the Nexus 4
        // protection, but later than the sustained stress test does.
        let first = |t: &ThermalTimeline| {
            t.phones()
                .iter()
                .filter_map(|p| p.shutdown_at())
                .map(|s| s.seconds())
                .fold(f64::INFINITY, f64::min)
        };
        assert!(first(&light) > first(&full));
    }

    #[test]
    fn latency_rises_as_phones_heat_up() {
        let (_, timeline) = run_full_load();
        let phone = &timeline.phones()[0];
        let first = phone.job_latencies[0].unwrap();
        let last_alive = phone.job_latencies.iter().rev().find_map(|l| *l).unwrap();
        assert!(last_alive > first, "latency should grow with temperature");
        assert!((first - 5.0).abs() < 1e-9);
        assert!(last_alive < 20.0);
    }

    #[test]
    fn thermal_power_is_in_the_paper_band() {
        let (test, full) = run_full_load();
        let per_device_full = full.thermal_power(test.enclosure(), &test.models()).value() / 5.0;
        assert!(
            per_device_full > 1.2 && per_device_full < 4.5,
            "full-load thermal power {per_device_full} W/device"
        );
        let (test, light) = run_light_medium();
        let per_device_light = light
            .thermal_power(test.enclosure(), &test.models())
            .value()
            / 5.0;
        assert!(
            per_device_light < per_device_full,
            "light-medium ({per_device_light} W) should be below full load ({per_device_full} W)"
        );
        // Both stay well below the 5 W TDP, the paper's observation (d).
        assert!(per_device_full < 5.0);
    }

    #[test]
    fn air_temperature_is_monotone_until_first_shutdown() {
        let (_, timeline) = run_full_load();
        let first_shutdown = timeline
            .phones()
            .iter()
            .filter_map(|p| p.shutdown_at())
            .map(|t| (t.seconds() / timeline.step().seconds()) as usize)
            .min()
            .unwrap_or(timeline.air_temperatures().len() - 1);
        let air = timeline.air_temperatures();
        for i in 1..=first_shutdown {
            assert!(
                air[i] >= air[i - 1] - 1e-9,
                "air cooled before any shutdown at step {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one phone")]
    fn empty_test_panics() {
        let _ = StressTest::new(
            Enclosure::paper_styrofoam_box(),
            vec![],
            LoadProfile::full_load(),
            TimeSpan::from_minutes(10.0),
        );
    }
}
