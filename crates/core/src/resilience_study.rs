//! The resilience study: what a "nine" of availability costs in carbon.
//!
//! The lifecycle study's deployment — its two CAISO-like cloudlet
//! regions, its run config (windows per day, slice, warm-up, seed,
//! worker cap) and its office-day demand — is run over this study's own
//! horizon under an identical deterministic fault plan — regional grid
//! outages, firmware-batch failures and thermal mass-shutdowns — with a
//! stale health view (the router learns about dead capacity one
//! detection lag late). Five strategies face the same chaos:
//!
//! 1. **fault-free baseline** — no faults and the do-nothing policy; must
//!    be bit-identical to a lagged, retrying run over disabled faults
//!    (and is checked).
//! 2. **unmitigated** — faults land, nothing recovers; the floor for
//!    availability and the floor for carbon.
//! 3. **N+1 overprovisioning** — spare Pixel slots per cloudlet buy
//!    headroom with embodied + idle carbon paid up front, faults or not.
//! 4. **retry-to-fallback** — bounded retries with a hedged fallback to
//!    a leased datacenter kept on standby; every retry and hedge is
//!    charged its network and marginal compute carbon, and the standby
//!    pays idle + amortised embodied all horizon long.
//! 5. **degrade-in-place** — reroute to surviving capacity, shed
//!    low-priority work, brown out the latency target; no new hardware,
//!    availability bought with degraded service instead of carbon.
//!
//! The output orders the strategies on the availability/carbon plane so
//! the gCO2e/request price of each additional nine is explicit.

use junkyard_fleet::faults::{DegradationLadder, FaultConfig, ResiliencePolicy, RetryPolicy};
use junkyard_fleet::lifecycle::{LifecycleResult, LifecycleSim, LifecycleSite, MeasuredSlices};
use junkyard_fleet::routing::RoutingPolicy;
use junkyard_microsim::sim::SimError;

use crate::deployments::{c5_datacenter_site, DeploymentError};
use crate::lifecycle_study::{office_day_demand, LifecycleStudy};

/// Spare Pixel slots per cloudlet under N+1 overprovisioning.
const SPARE_PIXELS: usize = 2;
/// Retry rounds the retrying strategies allow.
const MAX_RETRIES: usize = 3;
/// Share of demand degrade-in-place sheds as low priority.
const LOW_PRIORITY_FRACTION: f64 = 0.5;
/// Latency-target stretch of degrade-in-place's brown-out.
const BROWNOUT_STRETCH: f64 = 1.25;

/// Nines of availability: `-log10(1 - availability)`, capped at nine
/// nines so a perfect run stays finite (and JSON-representable).
#[must_use]
pub fn availability_nines(availability: f64) -> f64 {
    if availability >= 1.0 - 1e-9 {
        9.0
    } else {
        -(1.0 - availability).log10()
    }
}

/// Configuration of the fault-injection resilience study: the
/// [`LifecycleStudy`] whose deployment it serves, its horizon in days,
/// its fault parameters and the router's detection lag. The strategies'
/// own settings are the same in both presets, so they are constants.
#[derive(Debug, Clone)]
pub struct ResilienceStudy {
    study: LifecycleStudy,
    horizon_days: usize,
    outage_mean_days: f64,
    outage_windows: usize,
    firmware_mean_days: f64,
    firmware_fraction: f64,
    firmware_windows: usize,
    thermal_mean_days: f64,
    thermal_windows: usize,
    detection_lag_windows: usize,
}

impl ResilienceStudy {
    /// The full-scale study: one year, hourly routing windows, monthly
    /// regional outages (half a day each), firmware batches knocking out
    /// 40% of a cohort for two days every ~45 days, thermal shutdowns
    /// every two months, and a two-hour detection lag.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            study: LifecycleStudy::paper_scale(),
            horizon_days: 365,
            outage_mean_days: 30.0,
            outage_windows: 12,
            firmware_mean_days: 45.0,
            firmware_fraction: 0.4,
            firmware_windows: 48,
            thermal_mean_days: 60.0,
            thermal_windows: 6,
            detection_lag_windows: 2,
        }
    }

    /// A reduced study for quick runs and CI: eight weeks, four 6-hour
    /// windows per day, faults aggressive enough to strike several times
    /// within the short horizon, a one-window detection lag.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            study: LifecycleStudy::quick(),
            horizon_days: 56,
            outage_mean_days: 14.0,
            outage_windows: 4,
            firmware_mean_days: 18.0,
            firmware_fraction: 0.5,
            firmware_windows: 8,
            thermal_mean_days: 21.0,
            thermal_windows: 2,
            detection_lag_windows: 1,
        }
    }

    /// Overrides the simulated horizon in days.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn horizon_days(mut self, days: usize) -> Self {
        assert!(days > 0, "the study needs at least one day");
        self.horizon_days = days;
        self
    }

    /// Overrides the random seed (grid traces, workloads and the fault
    /// plan all derive from it deterministically).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.study = self.study.seed(seed);
        self
    }

    /// Caps the worker threads; `1` forces serial runs.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.study = self.study.parallelism(workers);
        self
    }

    /// The shared fault plan configuration every faulty strategy faces.
    #[must_use]
    pub fn fault_config(&self) -> FaultConfig {
        FaultConfig::disabled()
            .grid_outages(self.outage_mean_days, self.outage_windows)
            .firmware_batches(
                self.firmware_mean_days,
                self.firmware_fraction,
                self.firmware_windows,
            )
            .thermal_shutdowns(self.thermal_mean_days, self.thermal_windows)
    }

    /// The two-cloudlet fleet (plus an optional datacenter standby as the
    /// last site) under carbon-aware routing, with `spares` extra Pixel
    /// slots per cloudlet.
    fn build_fleet(
        &self,
        spares: usize,
        with_standby: bool,
        faults: FaultConfig,
        policy: ResiliencePolicy,
    ) -> Result<LifecycleSim, DeploymentError> {
        let factory = self.study.clone().spare_pixels(spares);
        let (west, east) = factory.two_region_traces();
        let mut sites = vec![
            factory.phone_site("cloudlet-west", west)?,
            factory.phone_site("cloudlet-east", east)?,
        ];
        if with_standby {
            sites.push(LifecycleSite::try_leased(c5_datacenter_site(
                "datacenter-standby",
            )?)?);
        }
        Ok(LifecycleSim::new(
            sites,
            office_day_demand(),
            RoutingPolicy::CarbonAware,
            factory.config(self.horizon_days),
        )
        .with_faults(faults)
        .with_resilience(policy))
    }

    fn lagged_policy(&self) -> ResiliencePolicy {
        ResiliencePolicy::new().detection_lag_windows(self.detection_lag_windows)
    }

    /// The fully mitigated fleet as a buildable simulation: the shared
    /// fault plan, bounded retries hedged to a datacenter standby, and
    /// the degradation ladder, all at once. The richest single run the
    /// study can express — the `trace` binary executes it with a
    /// recorder attached so every transition kind actually fires.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if a site cannot be built.
    pub fn mitigated_fleet(&self) -> Result<LifecycleSim, DeploymentError> {
        self.build_fleet(
            0,
            true,
            self.fault_config(),
            self.lagged_policy()
                .retry(RetryPolicy::new(MAX_RETRIES).hedge_to_fallback())
                .fallback_site(2)
                .degradation(
                    DegradationLadder::new()
                        .shed_low_priority(LOW_PRIORITY_FRACTION)
                        .brownout(BROWNOUT_STRETCH),
                ),
        )
    }

    /// Runs every strategy against the identical fault plan.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if a fleet cannot be built or a
    /// simulation fails.
    pub fn run(&self) -> Result<ResilienceStudyResult, DeploymentError> {
        // The strategy fleets serve the same sites under one seed, so
        // their healthy windows replay identical slices: one table
        // measures each distinct slice once. Each fleet is built, run as
        // a batch of one and dropped in turn. Batching the strategies
        // would simulate no slice fewer, and every member's plan (its
        // fault grid, stored outcomes and daily dynamics: about 0.74 MB
        // for a year of hourly windows) would stay alive until the batch
        // is accounted.
        let mut slices = MeasuredSlices::new();
        let mut run = |sim: LifecycleSim| {
            LifecycleSim::run_batch([sim.plan()], &mut slices)
                .pop()
                .unwrap_or(Err(SimError::WorkerLost))
                .map_err(DeploymentError::Sim)
        };

        // The fault-free baseline, twice: once under the do-nothing policy
        // and once under a lagged, retrying one. Without faults, anything
        // but bit-identity is a defect in the failure-aware path. The
        // disabled twin runs standalone, so it re-simulates every slice
        // and the check stays a real one.
        let baseline =
            run(self.build_fleet(0, false, FaultConfig::disabled(), ResiliencePolicy::new())?)?;
        let disabled = self
            .build_fleet(
                0,
                false,
                FaultConfig::disabled(),
                self.lagged_policy().retry(RetryPolicy::new(MAX_RETRIES)),
            )?
            .run()
            .map_err(DeploymentError::Sim)?;
        let baseline_bit_identical = baseline == disabled;

        let faults = self.fault_config();
        let unmitigated = run(self.build_fleet(0, false, faults, self.lagged_policy())?)?;
        let overprovisioned =
            run(self.build_fleet(SPARE_PIXELS, false, faults, self.lagged_policy())?)?;
        let retry_to_fallback = run(self.build_fleet(
            0,
            true,
            faults,
            self.lagged_policy()
                .retry(RetryPolicy::new(MAX_RETRIES).hedge_to_fallback())
                .fallback_site(2),
        )?)?;
        let degrade_in_place = run(self.build_fleet(
            0,
            false,
            faults,
            self.lagged_policy()
                .retry(RetryPolicy::new(MAX_RETRIES))
                .degradation(
                    DegradationLadder::new()
                        .shed_low_priority(LOW_PRIORITY_FRACTION)
                        .brownout(BROWNOUT_STRETCH),
                ),
        )?)?;

        let strategies = vec![
            StrategyOutcome::new(
                "fault-free-baseline",
                "no faults injected; the pre-fault-layer serving path",
                baseline,
            ),
            StrategyOutcome::new(
                "unmitigated",
                "faults land on a stale health view; nothing recovers",
                unmitigated,
            ),
            StrategyOutcome::new(
                "n-plus-one",
                format!("{SPARE_PIXELS} spare Pixel slots per cloudlet absorb correlated losses"),
                overprovisioned,
            ),
            StrategyOutcome::new(
                "retry-to-fallback",
                format!("{MAX_RETRIES} bounded retries, hedged to a leased datacenter standby"),
                retry_to_fallback,
            ),
            StrategyOutcome::new(
                "degrade-in-place",
                format!(
                    "reroute, shed {:.0}% low-priority, brown out {:.0}%",
                    LOW_PRIORITY_FRACTION * 100.0,
                    (BROWNOUT_STRETCH - 1.0) * 100.0
                ),
                degrade_in_place,
            ),
        ];
        Ok(ResilienceStudyResult {
            strategies,
            baseline_bit_identical,
        })
    }
}

/// One strategy's full lifecycle accounting under the shared fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    name: String,
    description: String,
    result: LifecycleResult,
}

impl StrategyOutcome {
    fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        result: LifecycleResult,
    ) -> Self {
        Self {
            name: name.into(),
            description: description.into(),
            result,
        }
    }

    /// Stable identifier of the strategy.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-line description of what the strategy does.
    #[must_use]
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The underlying lifecycle result.
    #[must_use]
    pub fn result(&self) -> &LifecycleResult {
        &self.result
    }

    /// Fraction of non-declined demand that was eventually served (or
    /// deliberately shed, which counts as a decision, not a failure).
    #[must_use]
    pub fn availability(&self) -> f64 {
        self.result.availability()
    }

    /// Availability expressed as nines.
    #[must_use]
    pub fn nines(&self) -> f64 {
        availability_nines(self.result.availability())
    }

    /// Lifetime carbon divided by requests actually served, gCO2e.
    #[must_use]
    pub fn grams_per_request(&self) -> f64 {
        self.result.grams_per_request().unwrap_or(0.0)
    }

    /// Carbon spent purely on retries and hedges, gCO2e.
    #[must_use]
    pub fn retry_grams(&self) -> f64 {
        self.result.total_retry_carbon().grams()
    }
}

/// Result of the resilience study: every strategy on the
/// availability/carbon plane, plus the baseline integrity check.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceStudyResult {
    strategies: Vec<StrategyOutcome>,
    baseline_bit_identical: bool,
}

impl ResilienceStudyResult {
    /// All strategies, baseline first.
    #[must_use]
    pub fn strategies(&self) -> &[StrategyOutcome] {
        &self.strategies
    }

    /// Looks a strategy up by its stable name.
    #[must_use]
    pub fn strategy(&self, name: &str) -> Option<&StrategyOutcome> {
        self.strategies.iter().find(|s| s.name() == name)
    }

    /// The fault-free baseline outcome.
    ///
    /// # Panics
    ///
    /// Panics if the study did not record a baseline (it always does).
    #[must_use]
    pub fn baseline(&self) -> &StrategyOutcome {
        self.strategy("fault-free-baseline")
            .expect("the study always runs a baseline")
    }

    /// Whether the disabled fault machinery reproduced the plain run
    /// bit for bit. `false` means the failure-aware path leaks into
    /// healthy serving — a regression.
    #[must_use]
    pub fn baseline_bit_identical(&self) -> bool {
        self.baseline_bit_identical
    }

    /// The carbon price of availability between two strategies:
    /// `(Δ gCO2e/request) / (Δ nines)`, positive when `better` buys its
    /// extra nines with extra carbon. `None` when the nines don't differ.
    #[must_use]
    pub fn grams_per_nine(&self, worse: &str, better: &str) -> Option<f64> {
        let worse = self.strategy(worse)?;
        let better = self.strategy(better)?;
        let delta_nines = better.nines() - worse.nines();
        if delta_nines.abs() < 1e-12 {
            return None;
        }
        Some((better.grams_per_request() - worse.grams_per_request()) / delta_nines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_study() -> ResilienceStudy {
        ResilienceStudy::quick().horizon_days(10)
    }

    #[test]
    fn baseline_is_clean_and_bit_identical() {
        let result = tiny_study().run().unwrap();
        assert!(result.baseline_bit_identical());
        let baseline = result.baseline();
        assert_eq!(baseline.result().failed_requests(), 0.0);
        assert_eq!(baseline.availability(), 1.0);
        assert_eq!(baseline.nines(), 9.0);
        assert_eq!(baseline.retry_grams(), 0.0);
    }

    #[test]
    fn strategies_trade_availability_for_carbon() {
        // A seed whose short-horizon fault plan actually strikes.
        let result = tiny_study().seed(7).run().unwrap();
        let unmitigated = result.strategy("unmitigated").unwrap();
        assert!(
            unmitigated.result().failed_requests() > 0.0,
            "the quick fault plan must strike within the horizon"
        );
        assert!(unmitigated.availability() < 1.0);

        // Retry-to-fallback recovers requests and pays for it explicitly.
        let fallback = result.strategy("retry-to-fallback").unwrap();
        assert!(fallback.availability() > unmitigated.availability());
        assert!(fallback.retry_grams() > 0.0);

        // Degrade-in-place converts failures into sheds and retries.
        let degrade = result.strategy("degrade-in-place").unwrap();
        assert!(degrade.availability() > unmitigated.availability());
        assert!(
            degrade.result().failed_requests() < unmitigated.result().failed_requests(),
            "the ladder must absorb some of the unmitigated failures"
        );

        // The price of the nines is well-defined and reported.
        assert!(result
            .grams_per_nine("unmitigated", "retry-to-fallback")
            .is_some());
        assert_eq!(result.strategies().len(), 5);
    }

    #[test]
    fn study_is_deterministic() {
        let a = tiny_study().run().unwrap();
        let b = tiny_study().parallelism(4).run().unwrap();
        assert_eq!(a, b);
    }
}
