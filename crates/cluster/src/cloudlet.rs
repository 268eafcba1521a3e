//! Cloudlet designs: a homogeneous set of devices plus the peripherals and
//! networking needed to operate them as one server-equivalent unit.

use std::fmt;

use junkyard_carbon::embodied::EmbodiedCarbon;
use junkyard_carbon::ops::Throughput;
use junkyard_carbon::units::{GramsCo2e, TimeSpan, Watts};
use junkyard_devices::benchmark::Benchmark;
use junkyard_devices::device::DeviceSpec;
use junkyard_devices::power::LoadProfile;

use crate::peripherals::Peripheral;
use crate::topology::NetworkTopology;

/// A cloudlet: `device_count` identical devices, their peripherals and their
/// network, operated together.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudletDesign {
    name: String,
    device: DeviceSpec,
    device_count: u32,
    management_fraction: f64,
    reused: bool,
    peripherals: Vec<Peripheral>,
    topology: NetworkTopology,
    smart_charging_savings: f64,
}

impl CloudletDesign {
    /// Starts a design from a device and a count.
    ///
    /// # Panics
    ///
    /// Panics if `device_count` is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, device: DeviceSpec, device_count: u32) -> Self {
        assert!(device_count > 0, "a cloudlet needs at least one device");
        Self {
            name: name.into(),
            device,
            device_count,
            management_fraction: 0.0,
            reused: true,
            peripherals: Vec::new(),
            topology: NetworkTopology::wired_gigabit(),
            smart_charging_savings: 0.0,
        }
    }

    /// Marks the devices as newly manufactured (their embodied carbon is
    /// charged to the cloudlet) rather than reused.
    #[must_use]
    pub fn newly_manufactured(mut self) -> Self {
        self.reused = false;
        self
    }

    /// Designates a fraction of the devices as networking/management nodes
    /// (the paper uses 20 % for its phone cloudlets).
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `[0, 1)`.
    #[must_use]
    pub fn management_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "management fraction must be in [0, 1)"
        );
        self.management_fraction = fraction;
        self
    }

    /// Adds a peripheral line item.
    #[must_use]
    pub fn with_peripheral(mut self, peripheral: Peripheral) -> Self {
        self.peripherals.push(peripheral);
        self
    }

    /// Sets the network topology.
    #[must_use]
    pub fn topology(mut self, topology: NetworkTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Records the operational carbon saving achieved by smart charging
    /// (for example 0.07 for the Pixel cloudlet, 0.04 for the ThinkPads).
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `[0, 1)`.
    #[must_use]
    pub fn smart_charging_savings(mut self, fraction: f64) -> Self {
        assert!((0.0..1.0).contains(&fraction), "savings must be in [0, 1)");
        self.smart_charging_savings = fraction;
        self
    }

    /// A copy of this design with smart charging (and its plugs) removed —
    /// the paper's 100 %-solar variant, where time-shifting buys nothing.
    #[must_use]
    pub fn without_smart_charging(&self) -> Self {
        let mut copy = self.clone();
        copy.smart_charging_savings = 0.0;
        copy.peripherals.retain(|p| p.label() != "smart plug");
        copy
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The device the cloudlet is built from.
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Total number of devices.
    #[must_use]
    pub fn device_count(&self) -> u32 {
        self.device_count
    }

    /// Number of devices designated as networking/management nodes.
    #[must_use]
    pub fn management_count(&self) -> u32 {
        (f64::from(self.device_count) * self.management_fraction).round() as u32
    }

    /// Whether the devices are reused (embodied carbon already paid).
    #[must_use]
    pub fn is_reused(&self) -> bool {
        self.reused
    }

    /// The peripherals added to the cloudlet.
    #[must_use]
    pub fn peripherals(&self) -> &[Peripheral] {
        &self.peripherals
    }

    /// The cloudlet's network topology.
    #[must_use]
    pub fn network(&self) -> NetworkTopology {
        self.topology
    }

    /// The recorded smart-charging saving fraction.
    #[must_use]
    pub fn smart_charging_fraction(&self) -> f64 {
        self.smart_charging_savings
    }

    /// The operational-carbon scale factor implied by smart charging
    /// (1.0 when smart charging is off).
    #[must_use]
    pub fn operational_scale(&self) -> f64 {
        1.0 - self.smart_charging_savings
    }

    /// Average electrical power of the whole cloudlet (devices plus
    /// peripherals) under a duty cycle.
    #[must_use]
    pub fn average_power(&self, profile: &LoadProfile) -> Watts {
        let devices = self.device.average_power(profile) * f64::from(self.device_count);
        let peripherals: Watts = self.peripherals.iter().map(Peripheral::total_power).sum();
        devices + peripherals
    }

    /// Aggregate duty-cycle-averaged throughput of the cloudlet on a
    /// benchmark, if the device has a score for it.
    #[must_use]
    pub fn aggregate_throughput(
        &self,
        benchmark: Benchmark,
        profile: &LoadProfile,
    ) -> Option<Throughput> {
        self.device
            .average_throughput(benchmark, profile)
            .map(|t| t.scaled(f64::from(self.device_count)))
    }

    /// The embodied-carbon bill of the cloudlet, excluding battery
    /// replacements (which depend on the service lifetime and are handled by
    /// the CCI calculator's battery schedule).
    #[must_use]
    pub fn embodied_bill(&self) -> EmbodiedCarbon {
        let mut bill = EmbodiedCarbon::new();
        if !self.reused {
            bill.push_item(
                format!("{} (new)", self.device.name()),
                self.device.embodied(),
                f64::from(self.device_count),
            );
        }
        for peripheral in &self.peripherals {
            bill.push_item(
                peripheral.label(),
                peripheral.embodied_each(),
                f64::from(peripheral.quantity()),
            );
        }
        bill
    }

    /// Per-cloudlet battery replacement schedule, if the devices have
    /// batteries: the embodied carbon of replacing every device's pack once,
    /// and how long a pack lasts under the given duty cycle.
    #[must_use]
    pub fn battery_schedule(&self, profile: &LoadProfile) -> Option<(GramsCo2e, TimeSpan)> {
        let battery = self.device.battery()?;
        let power = self.device.average_power(profile);
        if power.value() <= 0.0 {
            return None;
        }
        let per_round = battery.embodied() * f64::from(self.device_count);
        Some((per_round, battery.projected_lifetime(power)))
    }

    /// Up-front hardware purchase cost in USD, if the device has a known
    /// second-hand price.
    #[must_use]
    pub fn purchase_cost_usd(&self) -> Option<f64> {
        self.device
            .purchase_cost_usd()
            .map(|per_device| per_device * f64::from(self.device_count))
    }
}

impl fmt::Display for CloudletDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} x {}",
            self.name,
            self.device_count,
            self.device.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use junkyard_devices::catalog;

    fn pixel_cloudlet() -> CloudletDesign {
        CloudletDesign::new("Pixel 3A x54", catalog::pixel_3a(), 54)
            .management_fraction(0.20)
            .with_peripheral(Peripheral::smart_plug(54))
            .with_peripheral(Peripheral::server_fan(1))
            .topology(NetworkTopology::paper_wifi_tree())
            .smart_charging_savings(0.07)
    }

    #[test]
    fn pixel_cloudlet_draws_about_84_watts_plus_peripherals() {
        let cloudlet = pixel_cloudlet();
        let power = cloudlet.average_power(&LoadProfile::light_medium());
        // 54 * 1.535 ≈ 83 W of phones, plus 27 W of plugs and 4 W of fan.
        assert!(
            power.value() > 105.0 && power.value() < 125.0,
            "got {power}"
        );
    }

    #[test]
    fn embodied_bill_counts_only_added_hardware_for_reuse() {
        let bill = pixel_cloudlet().embodied_bill();
        // 54 plugs at 3 kg + 1 fan at 9.3 kg; the phones themselves are free.
        assert!((bill.total().kilograms() - (162.0 + 9.3)).abs() < 1e-6);
    }

    #[test]
    fn new_server_pays_its_embodied_carbon() {
        let server = CloudletDesign::new("PowerEdge R740", catalog::poweredge_r740(), 1)
            .newly_manufactured();
        assert!((server.embodied_bill().total().kilograms() - 3330.0).abs() < 1e-6);
        assert!(!server.is_reused());
    }

    #[test]
    fn aggregate_throughput_scales_with_count() {
        let cloudlet = pixel_cloudlet();
        let profile = LoadProfile::light_medium();
        let single = catalog::pixel_3a()
            .average_throughput(Benchmark::Sgemm, &profile)
            .unwrap();
        let total = cloudlet
            .aggregate_throughput(Benchmark::Sgemm, &profile)
            .unwrap();
        assert!((total.rate() / single.rate() - 54.0).abs() < 1e-9);
    }

    #[test]
    fn battery_schedule_matches_pixel_projection() {
        let (carbon, lifetime) = pixel_cloudlet()
            .battery_schedule(&LoadProfile::light_medium())
            .unwrap();
        assert!((carbon.kilograms() - 108.0).abs() < 1e-9);
        assert!(lifetime.years() > 2.0 && lifetime.years() < 2.7);
        // Servers have no batteries.
        let server = CloudletDesign::new("server", catalog::poweredge_r740(), 1);
        assert!(server
            .battery_schedule(&LoadProfile::light_medium())
            .is_none());
    }

    #[test]
    fn without_smart_charging_strips_plugs() {
        let solar = pixel_cloudlet().without_smart_charging();
        assert_eq!(solar.smart_charging_fraction(), 0.0);
        assert!((solar.operational_scale() - 1.0).abs() < 1e-12);
        assert!(solar
            .peripherals()
            .iter()
            .all(|p| p.label() != "smart plug"));
        // The fan stays.
        assert!(solar
            .peripherals()
            .iter()
            .any(|p| p.label() == "server fan"));
    }

    #[test]
    fn management_count_is_a_fifth() {
        assert_eq!(pixel_cloudlet().management_count(), 11);
    }

    #[test]
    fn purchase_cost_scales() {
        assert!((pixel_cloudlet().purchase_cost_usd().unwrap() - 54.0 * 65.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_panics() {
        let _ = CloudletDesign::new("empty", catalog::pixel_3a(), 0);
    }
}
