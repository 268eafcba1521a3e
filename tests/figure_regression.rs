//! Golden regression pins for Figures 3 and 4.
//!
//! CI regenerates the study files and the lifecycle trace byte for byte,
//! but those cover the serving stack, not the thermal and battery crates
//! behind the Figure 3 stress test and the Figure 4 smart-charging
//! savings. These tests pin the exact bit patterns both figures' studies
//! produce, so a reordered float expression or a changed constant in
//! either crate fails loudly rather than drifting the paper's numbers.

use junkyard::core::charging_study::ChargingStudy;
use junkyard::core::report::Chart;
use junkyard::core::thermal_study::run_thermal_study;
use junkyard::devices::power::LoadProfile;
use junkyard::thermal::sim::{StressTest, ThermalTimeline};

/// One stress-test scenario's pinned outputs.
struct ThermalPin {
    /// Each phone's shutdown time in seconds, `None` if it survived.
    shutdown_bits: [Option<u64>; 5],
    peak_air_bits: u64,
    per_device_watts_bits: u64,
}

/// The four Nexus 4s shut down together at 39 minutes; the Nexus 5
/// survives.
const FULL_LOAD: ThermalPin = ThermalPin {
    shutdown_bits: [
        Some(0x40a2_4800_0000_0000),
        Some(0x40a2_4800_0000_0000),
        Some(0x40a2_4800_0000_0000),
        Some(0x40a2_4800_0000_0000),
        None,
    ],
    peak_air_bits: 0x404b_341d_a17d_3a7e,
    per_device_watts_bits: 0x4000_c253_b6ca_c529,
};

const LIGHT_MEDIUM: ThermalPin = ThermalPin {
    shutdown_bits: [None; 5],
    peak_air_bits: 0x4045_3a22_9b0a_a999,
    per_device_watts_bits: 0x3ff2_42f3_0e03_cc2f,
};

/// The 256-phone cloudlet's cooling plan: two COTS fans.
const COOLING_FANS: u32 = 2;
const COOLING_EMBODIED_GRAMS_BITS: u64 = 0x40d2_2a00_0000_0000;

/// Runs one scenario as `run_thermal_study` does: the paper's box, then
/// Eq. 9's total thermal power split evenly over the phones.
fn scenario(profile: LoadProfile) -> (ThermalTimeline, f64) {
    let test = StressTest::paper_setup(profile);
    let timeline = test.run();
    let total = timeline.thermal_power(test.enclosure(), &test.models());
    (timeline, total.value() / test.phones().len() as f64)
}

fn assert_pinned(name: &str, timeline: &ThermalTimeline, per_device: f64, pin: &ThermalPin) {
    let shutdowns: Vec<Option<u64>> = timeline
        .phones()
        .iter()
        .map(|p| p.shutdown_at().map(|t| t.seconds().to_bits()))
        .collect();
    assert_eq!(shutdowns, pin.shutdown_bits, "{name}: shutdown times");
    assert_eq!(
        timeline.peak_air_temperature().to_bits(),
        pin.peak_air_bits,
        "{name}: peak air temperature"
    );
    assert_eq!(
        per_device.to_bits(),
        pin.per_device_watts_bits,
        "{name}: per-device thermal power"
    );
}

/// The chart's air line and phone lines carry the timeline's samples.
fn assert_chart_plots(chart: &Chart, timeline: &ThermalTimeline) {
    let series = std::iter::once(timeline.air_temperatures())
        .chain(timeline.phones().iter().map(|p| p.temperatures()));
    assert_eq!(chart.lines().len(), 1 + timeline.phones().len());
    for (line, samples) in chart.lines().iter().zip(series) {
        let plotted: Vec<u64> = line.points().iter().map(|(_, y)| y.to_bits()).collect();
        let expected: Vec<u64> = samples.iter().map(|t| t.to_bits()).collect();
        assert_eq!(plotted, expected, "{}", line.label());
    }
}

#[test]
fn figure_3_thermal_study_is_bit_identical() {
    let (full, full_power) = scenario(LoadProfile::full_load());
    let (light, light_power) = scenario(LoadProfile::light_medium());
    assert_pinned("100% load", &full, full_power, &FULL_LOAD);
    assert_pinned("light-medium", &light, light_power, &LIGHT_MEDIUM);

    // The study reports exactly these runs.
    let study = run_thermal_study();
    assert_chart_plots(&study.temperature_chart(true), &full);
    assert_chart_plots(&study.temperature_chart(false), &light);
    assert_eq!(study.light_medium(), &light);
    let table = study.summary_table();
    assert_eq!(table.rows()[0][3], format!("{full_power:.2}"));
    assert_eq!(table.rows()[1][3], format!("{light_power:.2}"));
    let plan = study.cloudlet_cooling_plan();
    assert_eq!(
        plan.heat_load().value().to_bits(),
        (full_power * 256.0).to_bits()
    );
    assert_eq!(plan.fans_needed(), COOLING_FANS);
    assert_eq!(
        plan.embodied().grams().to_bits(),
        COOLING_EMBODIED_GRAMS_BITS
    );
}

/// One device's pinned Figure 4 outputs.
struct ChargingPin {
    label: &'static str,
    median_savings_bits: u64,
    std_savings_bits: u64,
    battery_replacements: u32,
    amortized_replacement_grams_bits: u64,
    net_savings_bits: u64,
    representative_day: usize,
}

const CHARGING: [ChargingPin; 2] = [
    ChargingPin {
        label: "Pixel 3A",
        median_savings_bits: 0x401a_9e7f_d007_cb3a,
        std_savings_bits: 0x400e_71cd_d1ea_6c38,
        battery_replacements: 0,
        amortized_replacement_grams_bits: 0x4050_f02b_43de_22b8,
        net_savings_bits: 0xc032_68bd_1a2d_4dea,
        representative_day: 8,
    },
    ChargingPin {
        label: "ThinkPad X1 Carbon G3",
        median_savings_bits: 0x400a_a88c_1d42_fa79,
        std_savings_bits: 0x3fe6_4f97_fdd5_9cc6,
        battery_replacements: 0,
        amortized_replacement_grams_bits: 0x4082_d084_0c85_5eb3,
        net_savings_bits: 0xc038_90aa_cae7_596e,
        representative_day: 25,
    },
];

#[test]
fn figure_4_charging_study_is_bit_identical() {
    let result = ChargingStudy::new(2021).run();
    assert_eq!(result.outcomes().len(), CHARGING.len());
    for (outcome, pin) in result.outcomes().iter().zip(&CHARGING) {
        assert_eq!(outcome.label(), pin.label);
        assert_eq!(
            outcome.median_savings_percent().to_bits(),
            pin.median_savings_bits,
            "{}: median savings",
            pin.label
        );
        assert_eq!(
            outcome.std_savings_percent().to_bits(),
            pin.std_savings_bits,
            "{}: std of savings",
            pin.label
        );
        assert_eq!(outcome.battery_replacements(), pin.battery_replacements);
        assert_eq!(
            outcome.amortized_replacement_carbon().grams().to_bits(),
            pin.amortized_replacement_grams_bits,
            "{}: amortised replacement carbon",
            pin.label
        );
        assert_eq!(
            outcome.net_savings_percent().to_bits(),
            pin.net_savings_bits,
            "{}: net savings",
            pin.label
        );
        let day = outcome
            .representative_day()
            .expect("a month has non-warm-up days");
        assert_eq!(day.day_index(), pin.representative_day, "{}", pin.label);
    }
}
