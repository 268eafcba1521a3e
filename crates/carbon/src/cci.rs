//! Computational Carbon Intensity — the paper's central metric.
//!
//! CCI is the lifetime CO2-equivalent emitted by a system divided by the
//! lifetime useful work it performs (Eqs. 1–2):
//!
//! ```text
//! CCI = (C_M + C_C + C_N) / Σ ops
//! ```
//!
//! [`CciCalculator`] assembles the three carbon terms from an embodied bill,
//! an average electrical power, a grid carbon intensity, an optional
//! networking profile, an optional battery-replacement schedule and an
//! optional facility PUE multiplier, and evaluates CCI at any lifetime.
//! Reused devices enter with the paper's `C_M = 0` stipulation
//! ([`EmbodiedCarbon::reused`]) rather than Eq. 7's two-life form, which
//! would amortise the original manufacturing over both lives' work.

use std::fmt;

use crate::embodied::{battery_replacement_carbon, EmbodiedCarbon};
use crate::operational::{compute_carbon, NetworkProfile};
use crate::ops::{OpCount, OpUnit, Throughput};
use crate::units::{CarbonIntensity, GramsCo2e, TimeSpan, Watts};

/// The carbon numerator of CCI, split into the paper's three terms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CarbonBreakdown {
    manufacturing: GramsCo2e,
    compute: GramsCo2e,
    network: GramsCo2e,
}

impl CarbonBreakdown {
    /// Creates a breakdown from its three terms.
    #[must_use]
    pub fn new(manufacturing: GramsCo2e, compute: GramsCo2e, network: GramsCo2e) -> Self {
        Self {
            manufacturing,
            compute,
            network,
        }
    }

    /// The manufacturing (embodied) term `C_M`.
    #[must_use]
    pub fn manufacturing(self) -> GramsCo2e {
        self.manufacturing
    }

    /// The compute term `C_C`.
    #[must_use]
    pub fn compute(self) -> GramsCo2e {
        self.compute
    }

    /// The networking term `C_N`.
    #[must_use]
    pub fn network(self) -> GramsCo2e {
        self.network
    }

    /// Total carbon across the three terms.
    #[must_use]
    pub fn total(self) -> GramsCo2e {
        self.manufacturing + self.compute + self.network
    }
}

impl fmt::Display for CarbonBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "C_M {:.2} + C_C {:.2} + C_N {:.2} = {:.2} kgCO2e",
            self.manufacturing().kilograms(),
            self.compute().kilograms(),
            self.network().kilograms(),
            self.total().kilograms()
        )
    }
}

/// A CCI value: grams of CO2-equivalent per unit of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cci {
    grams_per_op: f64,
    unit: OpUnit,
}

impl Cci {
    /// Computes CCI from total carbon and total work.
    ///
    /// # Errors
    ///
    /// Returns [`CciError::NoWork`] when `work` is zero or negative, since
    /// the metric is undefined without useful output.
    pub fn new(total: GramsCo2e, work: OpCount) -> Result<Self, CciError> {
        if work.amount() <= 0.0 {
            return Err(CciError::NoWork);
        }
        Ok(Self {
            grams_per_op: total.grams() / work.amount(),
            unit: work.unit(),
        })
    }

    /// Grams of CO2e per unit of work.
    #[must_use]
    pub fn grams_per_op(self) -> f64 {
        self.grams_per_op
    }

    /// Milligrams of CO2e per unit of work (the unit used in the paper's
    /// figures).
    #[must_use]
    pub fn milligrams_per_op(self) -> f64 {
        self.grams_per_op * 1_000.0
    }

    /// The unit of work the denominator is measured in.
    #[must_use]
    pub fn unit(self) -> OpUnit {
        self.unit
    }

    /// Ratio of this CCI to `other` (how many times more carbon-intense this
    /// system is). Both must use the same work unit.
    ///
    /// # Panics
    ///
    /// Panics if the units differ.
    #[must_use]
    pub fn ratio_to(self, other: Cci) -> f64 {
        assert_eq!(
            self.unit, other.unit,
            "cannot compare CCI across work units"
        );
        self.grams_per_op / other.grams_per_op
    }
}

impl fmt::Display for Cci {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} mgCO2e/{}", self.milligrams_per_op(), self.unit)
    }
}

/// Errors produced by CCI computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CciError {
    /// The system performed no work, so carbon per unit of work is undefined.
    NoWork,
    /// The calculator was asked for CCI but no throughput was configured.
    MissingThroughput,
}

impl fmt::Display for CciError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CciError::NoWork => f.write_str("no useful work performed; CCI is undefined"),
            CciError::MissingThroughput => {
                f.write_str("no throughput configured; cannot amortise carbon over work")
            }
        }
    }
}

impl std::error::Error for CciError {}

/// Builder/evaluator for lifetime CCI of one system configuration.
///
/// # Examples
///
/// ```
/// use junkyard_carbon::cci::CciCalculator;
/// use junkyard_carbon::embodied::EmbodiedCarbon;
/// use junkyard_carbon::ops::{OpUnit, Throughput};
/// use junkyard_carbon::units::{CarbonIntensity, GramsCo2e, TimeSpan, Watts};
///
/// # fn main() -> Result<(), junkyard_carbon::cci::CciError> {
/// let reused_phone = CciCalculator::new(OpUnit::Gflop)
///     .embodied(EmbodiedCarbon::reused())
///     .average_power(Watts::new(1.54))
///     .grid(CarbonIntensity::from_grams_per_kwh(257.0))
///     .throughput(Throughput::per_second(10.0, OpUnit::Gflop));
/// let cci = reused_phone.cci_at(TimeSpan::from_months(36.0))?;
/// assert!(cci.grams_per_op() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CciCalculator {
    unit: OpUnit,
    embodied: EmbodiedCarbon,
    average_power: Watts,
    grid: CarbonIntensity,
    network: NetworkProfile,
    throughput: Option<Throughput>,
    battery: Option<BatterySchedule>,
    pue: f64,
    operational_scale: f64,
}

/// Battery replacement schedule: embodied carbon per pack and how long a
/// pack lasts under the configured duty cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BatterySchedule {
    per_battery: GramsCo2e,
    battery_lifetime: TimeSpan,
}

impl CciCalculator {
    /// Creates a calculator for work measured in `unit`.
    #[must_use]
    pub fn new(unit: OpUnit) -> Self {
        Self {
            unit,
            embodied: EmbodiedCarbon::new(),
            average_power: Watts::ZERO,
            grid: CarbonIntensity::ZERO,
            network: NetworkProfile::none(),
            throughput: None,
            battery: None,
            pue: 1.0,
            operational_scale: 1.0,
        }
    }

    /// Sets the embodied-carbon bill (`C_M`), excluding batteries handled by
    /// [`Self::battery_replacement`].
    #[must_use]
    pub fn embodied(mut self, embodied: EmbodiedCarbon) -> Self {
        self.embodied = embodied;
        self
    }

    /// Sets the average electrical power of the system under its workload.
    #[must_use]
    pub fn average_power(mut self, power: Watts) -> Self {
        self.average_power = power;
        self
    }

    /// Sets the grid carbon intensity powering the system.
    #[must_use]
    pub fn grid(mut self, grid: CarbonIntensity) -> Self {
        self.grid = grid;
        self
    }

    /// Sets the networking profile (`C_N`).
    #[must_use]
    pub fn network(mut self, network: NetworkProfile) -> Self {
        self.network = network;
        self
    }

    /// Sets the useful-work throughput of the system (work-unit per second,
    /// already averaged over the duty cycle as in Eq. 6).
    ///
    /// # Panics
    ///
    /// Panics if the throughput unit differs from the calculator's unit.
    #[must_use]
    pub fn throughput(mut self, throughput: Throughput) -> Self {
        assert_eq!(
            throughput.unit(),
            self.unit,
            "throughput unit must match the calculator's work unit"
        );
        self.throughput = Some(throughput);
        self
    }

    /// Schedules periodic battery replacements (Eq. 10): each pack embodies
    /// `per_battery` and survives `battery_lifetime` of service.
    #[must_use]
    pub fn battery_replacement(
        mut self,
        per_battery: GramsCo2e,
        battery_lifetime: TimeSpan,
    ) -> Self {
        self.battery = Some(BatterySchedule {
            per_battery,
            battery_lifetime,
        });
        self
    }

    /// Applies a facility power-usage-effectiveness multiplier to the
    /// operational terms, as in the datacenter-scale formulation (Eq. 15).
    ///
    /// # Panics
    ///
    /// Panics if `pue < 1.0`.
    #[must_use]
    pub fn pue(mut self, pue: f64) -> Self {
        assert!(pue >= 1.0, "PUE cannot be below 1.0");
        self.pue = pue;
        self
    }

    /// Scales the *operational* carbon terms by a dimensionless factor, used
    /// to model smart-charging savings (for example `1.0 - 0.07` for the 7 %
    /// Pixel 3A saving of Section 4.3).
    ///
    /// # Panics
    ///
    /// Panics if the factor is negative.
    #[must_use]
    pub fn operational_scale(mut self, factor: f64) -> Self {
        assert!(factor >= 0.0, "operational scale cannot be negative");
        self.operational_scale = factor;
        self
    }

    /// The work unit of this calculator.
    #[must_use]
    pub fn unit(&self) -> OpUnit {
        self.unit
    }

    /// The carbon breakdown after `lifetime` of service.
    #[must_use]
    pub fn breakdown_at(&self, lifetime: TimeSpan) -> CarbonBreakdown {
        let mut manufacturing = self.embodied.total();
        if let Some(battery) = self.battery {
            manufacturing +=
                battery_replacement_carbon(battery.per_battery, lifetime, battery.battery_lifetime);
        }
        let compute = compute_carbon(self.grid, self.average_power, lifetime)
            * self.operational_scale
            * self.pue;
        let network =
            self.network.carbon_over(self.grid, lifetime) * self.operational_scale * self.pue;
        CarbonBreakdown::new(manufacturing, compute, network)
    }

    /// Total work completed after `lifetime` of service.
    ///
    /// # Errors
    ///
    /// Returns [`CciError::MissingThroughput`] when no throughput was set.
    pub fn work_at(&self, lifetime: TimeSpan) -> Result<OpCount, CciError> {
        let throughput = self.throughput.ok_or(CciError::MissingThroughput)?;
        Ok(throughput.work_over(lifetime))
    }

    /// CCI after `lifetime` of service.
    ///
    /// # Errors
    ///
    /// Returns [`CciError::MissingThroughput`] when no throughput was set and
    /// [`CciError::NoWork`] when the lifetime is zero.
    pub fn cci_at(&self, lifetime: TimeSpan) -> Result<Cci, CciError> {
        let work = self.work_at(lifetime)?;
        Cci::new(self.breakdown_at(lifetime).total(), work)
    }
}

/// Finds the service lifetime (in months) at which configuration `a` stops
/// being more carbon-efficient than configuration `b`, scanning
/// `1..=max_months` at one-month resolution.
///
/// Returns `None` if `a` is better (or equal) for the entire scanned range,
/// or worse from the very first month.
///
/// # Errors
///
/// Propagates configuration errors from either calculator.
pub fn crossover_months(
    a: &CciCalculator,
    b: &CciCalculator,
    max_months: u32,
) -> Result<Option<u32>, CciError> {
    let mut a_was_better = false;
    for m in 1..=max_months {
        let life = TimeSpan::from_months(f64::from(m));
        let cci_a = a.cci_at(life)?;
        let cci_b = b.cci_at(life)?;
        if cci_a.grams_per_op() <= cci_b.grams_per_op() {
            a_was_better = true;
        } else if a_was_better {
            return Ok(Some(m));
        } else {
            return Ok(None);
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::DataRate;

    fn phone() -> CciCalculator {
        CciCalculator::new(OpUnit::Gflop)
            .embodied(EmbodiedCarbon::reused())
            .average_power(Watts::new(1.54))
            .grid(CarbonIntensity::from_grams_per_kwh(257.0))
            .throughput(Throughput::per_second(17.2, OpUnit::Gflop))
    }

    fn server() -> CciCalculator {
        CciCalculator::new(OpUnit::Gflop)
            .embodied(EmbodiedCarbon::manufactured(
                "PowerEdge R740",
                GramsCo2e::from_kilograms(3330.0),
            ))
            .average_power(Watts::new(308.7))
            .grid(CarbonIntensity::from_grams_per_kwh(257.0))
            .throughput(Throughput::per_second(910.8, OpUnit::Gflop))
    }

    #[test]
    fn reused_device_cci_is_flat_over_lifetime() {
        // With no embodied carbon the metric is purely operational, so it is
        // independent of lifetime.
        let phone = phone();
        let a = phone.cci_at(TimeSpan::from_months(6.0)).unwrap();
        let b = phone.cci_at(TimeSpan::from_months(60.0)).unwrap();
        assert!((a.grams_per_op() - b.grams_per_op()).abs() < 1e-12);
    }

    #[test]
    fn new_server_cci_decreases_with_lifetime() {
        let server = server();
        let short = server.cci_at(TimeSpan::from_months(6.0)).unwrap();
        let long = server.cci_at(TimeSpan::from_months(60.0)).unwrap();
        assert!(long.grams_per_op() < short.grams_per_op());
    }

    #[test]
    fn breakdown_terms_sum_to_total() {
        let calc = server().network(NetworkProfile::wifi(DataRate::from_gigabits_per_sec(0.1)));
        let b = calc.breakdown_at(TimeSpan::from_years(3.0));
        let total = b.manufacturing() + b.compute() + b.network();
        assert!((total.grams() - b.total().grams()).abs() < 1e-9);
    }

    #[test]
    fn pue_scales_only_operational_terms() {
        let base = server().breakdown_at(TimeSpan::from_years(3.0));
        let with_pue = server().pue(1.5).breakdown_at(TimeSpan::from_years(3.0));
        assert_eq!(base.manufacturing(), with_pue.manufacturing());
        assert!((with_pue.compute().grams() / base.compute().grams() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn operational_scale_models_smart_charging() {
        let base = phone().cci_at(TimeSpan::from_years(3.0)).unwrap();
        let saved = phone()
            .operational_scale(0.93)
            .cci_at(TimeSpan::from_years(3.0))
            .unwrap();
        assert!((saved.grams_per_op() / base.grams_per_op() - 0.93).abs() < 1e-9);
    }

    #[test]
    fn battery_replacement_adds_steps() {
        let calc =
            phone().battery_replacement(GramsCo2e::from_kilograms(2.0), TimeSpan::from_years(2.3));
        let before = calc.breakdown_at(TimeSpan::from_years(2.0)).manufacturing();
        let after = calc.breakdown_at(TimeSpan::from_years(2.5)).manufacturing();
        assert_eq!(before, GramsCo2e::ZERO);
        assert!((after.kilograms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn missing_throughput_is_an_error() {
        let calc = CciCalculator::new(OpUnit::Request);
        assert_eq!(
            calc.cci_at(TimeSpan::from_years(1.0)).unwrap_err(),
            CciError::MissingThroughput
        );
    }

    #[test]
    fn zero_lifetime_is_no_work() {
        assert_eq!(
            phone().cci_at(TimeSpan::ZERO).unwrap_err(),
            CciError::NoWork
        );
    }

    #[test]
    fn phone_beats_server_for_short_lifetimes() {
        // The reused phone wins early because the new server must amortise
        // 3.3 tCO2e of manufacturing; this is the paper's central claim.
        let phone = phone().cci_at(TimeSpan::from_months(12.0)).unwrap();
        let server = server().cci_at(TimeSpan::from_months(12.0)).unwrap();
        assert!(phone.grams_per_op() < server.grams_per_op());
        assert!(server.ratio_to(phone) > 1.0);
    }

    #[test]
    fn crossover_detects_when_reuse_stops_winning() {
        // A deliberately power-hungry reused device against an efficient new
        // one: reuse wins early, loses eventually.
        let reused = CciCalculator::new(OpUnit::Gflop)
            .embodied(EmbodiedCarbon::reused())
            .average_power(Watts::new(456.0))
            .grid(CarbonIntensity::from_grams_per_kwh(257.0))
            .throughput(Throughput::per_second(100.0, OpUnit::Gflop));
        let fresh = CciCalculator::new(OpUnit::Gflop)
            .embodied(EmbodiedCarbon::manufactured(
                "new",
                GramsCo2e::from_kilograms(900.0),
            ))
            .average_power(Watts::new(309.0))
            .grid(CarbonIntensity::from_grams_per_kwh(257.0))
            .throughput(Throughput::per_second(100.0, OpUnit::Gflop));
        let crossover = crossover_months(&reused, &fresh, 120).unwrap();
        assert!(crossover.is_some());
        assert!(crossover.unwrap() > 12);
    }

    #[test]
    fn display_formats() {
        let cci = phone().cci_at(TimeSpan::from_years(1.0)).unwrap();
        assert!(cci.to_string().contains("mgCO2e/gflop"));
        let b = phone().breakdown_at(TimeSpan::from_years(1.0));
        assert!(b.to_string().contains("C_M"));
    }
}
