//! Correlated fault injection and the failure-aware serving path.
//!
//! The lifecycle layer's stochastic per-device failures are *independent*
//! — one slot at a time, quietly refilled after a lag — and its router is
//! omniscient, re-planning every window from perfectly known alive
//! capacity. Real junkyard fleets fail in correlated ways: a regional
//! grid outage darkens a whole site for hours, a bad firmware batch
//! strikes a correlated fraction of a cohort at once, and thermal
//! mass-shutdowns temporarily zero a site's capacity. This module models
//! those events and what a serving stack does about them:
//!
//! * [`FaultConfig`] → [`FaultPlan`]: correlated fault events drawn
//!   through `decorrelate_seed`, so the plan is bit-identical at any
//!   worker count, and kept only as what they leave standing: a
//!   per-(window, site) *availability* multiplier in `[0, 1]`, allocated
//!   at the first strike, so a plan nothing struck holds no grid.
//! * Health view with detection lag: the router plans window `w` from
//!   the availability that was true at window `w - lag`. With a stale
//!   view, requests land on dead capacity and fail — detection lag is
//!   the knob that converts outages into failed requests.
//! * [`RetryPolicy`]: failed first attempts are re-sent (bounded rounds)
//!   to sites in proportion to the *observed* — stale — healthy capacity,
//!   so retries can land on dead capacity again. Every attempt,
//!   successful or not, is charged its network carbon; requests that
//!   land are charged marginal compute.
//!   An optional hedge forwards what is left to a standby fallback site.
//! * [`DegradationLadder`]: when retries exhaust, the operator (who sees
//!   the truth) reroutes to any real spare capacity, then sheds a
//!   low-priority fraction, then brown-outs: serves the remainder at
//!   degraded quality by stretching site capacity.
//!
//! [`resolve_window`] runs that pipeline for one window as plain
//! arithmetic on mean rates — no simulation — and the lifecycle layer
//! folds the outcome into its carbon and availability accounting. Every
//! window goes through it; a window nothing disturbed resolves to
//! [`WindowResolution::healthy`], which the lifecycle does not store.

use junkyard_carbon::convert::{count_f64, index_u64, unit_draw};
use junkyard_microsim::sweep::decorrelate_seed;

/// Rates and shapes of the correlated fault processes. All three kinds
/// default to disabled; enable each with its builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    grid_outage_mean_days: f64,
    grid_outage_duration_windows: usize,
    firmware_mean_days: f64,
    firmware_fraction: f64,
    firmware_duration_windows: usize,
    thermal_mean_days: f64,
    thermal_duration_windows: usize,
}

impl FaultConfig {
    /// A configuration with every fault process disabled. The generated
    /// plan is fault-free: availability 1.0 everywhere, and no grid.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            grid_outage_mean_days: 0.0,
            grid_outage_duration_windows: 1,
            firmware_mean_days: 0.0,
            firmware_fraction: 0.0,
            firmware_duration_windows: 1,
            thermal_mean_days: 0.0,
            thermal_duration_windows: 1,
        }
    }

    /// Enables regional grid outages: per site, one strikes on average
    /// every `mean_days` days and darkens the whole site for
    /// `duration_windows` routing windows.
    ///
    /// # Panics
    ///
    /// Panics if `mean_days` is not strictly positive or the duration is
    /// zero.
    #[must_use]
    pub fn grid_outages(mut self, mean_days: f64, duration_windows: usize) -> Self {
        assert!(
            mean_days > 0.0,
            "mean days between outages must be positive"
        );
        assert!(duration_windows > 0, "an outage lasts at least one window");
        self.grid_outage_mean_days = mean_days;
        self.grid_outage_duration_windows = duration_windows;
        self
    }

    /// Enables firmware-batch failures: per site, one strikes on average
    /// every `mean_days` days and takes down `fraction` of the cohort's
    /// capacity for `duration_windows` windows.
    ///
    /// # Panics
    ///
    /// Panics if `mean_days` is not strictly positive, `fraction` is
    /// outside `(0, 1]` or the duration is zero.
    #[must_use]
    pub fn firmware_batches(
        mut self,
        mean_days: f64,
        fraction: f64,
        duration_windows: usize,
    ) -> Self {
        assert!(
            mean_days > 0.0,
            "mean days between firmware faults must be positive"
        );
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "the struck cohort fraction must be in (0, 1]"
        );
        assert!(
            duration_windows > 0,
            "a firmware fault lasts at least one window"
        );
        self.firmware_mean_days = mean_days;
        self.firmware_fraction = fraction;
        self.firmware_duration_windows = duration_windows;
        self
    }

    /// Enables thermal mass-shutdowns: per site, one strikes on average
    /// every `mean_days` days and zeroes the site's capacity for
    /// `duration_windows` windows.
    ///
    /// # Panics
    ///
    /// Panics if `mean_days` is not strictly positive or the duration is
    /// zero.
    #[must_use]
    pub fn thermal_shutdowns(mut self, mean_days: f64, duration_windows: usize) -> Self {
        assert!(
            mean_days > 0.0,
            "mean days between thermal shutdowns must be positive"
        );
        assert!(duration_windows > 0, "a shutdown lasts at least one window");
        self.thermal_mean_days = mean_days;
        self.thermal_duration_windows = duration_windows;
        self
    }

    /// The three processes — grid outages, firmware batches and thermal
    /// shutdowns, in that order — as `(mean_days, duration, severity)`
    /// rows, disabled ones included with a zero rate.
    fn processes(&self) -> [(f64, usize, f64); 3] {
        [
            (
                self.grid_outage_mean_days,
                self.grid_outage_duration_windows,
                1.0,
            ),
            (
                self.firmware_mean_days,
                self.firmware_duration_windows,
                self.firmware_fraction,
            ),
            (self.thermal_mean_days, self.thermal_duration_windows, 1.0),
        ]
    }
}

/// The correlated faults of a horizon, kept as the per-(window, site)
/// availability multiplier they leave standing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    windows: usize,
    sites: usize,
    /// Window-major: `availability[window * sites + site]`, in `[0, 1]`.
    /// Empty until the first strike: every pair is then fully available.
    availability: Vec<f64>,
}

impl FaultPlan {
    /// Generates the plan for `windows` routing windows over `sites`
    /// sites at `windows_per_day` windows per day. Every draw comes from
    /// a [`decorrelate_seed`] chain indexed by (kind, site, window), so
    /// the plan is a pure function of its arguments — bit-identical at
    /// any worker count and stable when other seeded draws change. A
    /// disabled config, or one that never strikes, generates availability
    /// 1.0 everywhere and allocates no grid.
    #[must_use]
    pub fn generate(
        config: &FaultConfig,
        windows: usize,
        sites: usize,
        windows_per_day: usize,
        seed: u64,
    ) -> Self {
        let mut plan = Self {
            windows,
            sites,
            availability: Vec::new(),
        };
        for (kind_index, (mean_days, duration, severity)) in
            config.processes().into_iter().enumerate()
        {
            if mean_days <= 0.0 {
                continue;
            }
            // Per-window hazard of a process with the given mean
            // inter-arrival time in days.
            let hazard = 1.0 - (-1.0 / (mean_days * count_f64(windows_per_day))).exp();
            let kind_seed = decorrelate_seed(seed, index_u64(kind_index) + 1);
            for site in 0..sites {
                let site_seed = decorrelate_seed(kind_seed, index_u64(site) + 1);
                let mut window = 0;
                while window < windows {
                    let draw = unit_draw(decorrelate_seed(site_seed, index_u64(window) + 1));
                    if draw < hazard {
                        // The event covers `duration` windows, clipped to
                        // the horizon. One event of a kind at a time per
                        // site: skip to its end before drawing again.
                        if plan.availability.is_empty() {
                            plan.availability = vec![1.0; windows * sites];
                        }
                        for struck in window..(window + duration).min(windows) {
                            let cell = &mut plan.availability[struck * sites + site];
                            *cell = (*cell * (1.0 - severity)).max(0.0);
                        }
                        window += duration;
                    } else {
                        window += 1;
                    }
                }
            }
        }
        plan
    }

    /// The availability multiplier of one (window, site) pair, in
    /// `[0, 1]`: the fraction of the site's capacity the faults leave
    /// standing.
    ///
    /// # Panics
    ///
    /// Panics if `site` or `window` is outside the plan.
    #[must_use]
    pub fn availability(&self, window: usize, site: usize) -> f64 {
        assert!(
            site < self.sites,
            "site index {site} out of range ({} sites)",
            self.sites
        );
        assert!(
            window < self.windows,
            "window index {window} out of range ({} windows)",
            self.windows
        );
        self.availability
            .get(window * self.sites + site)
            .copied()
            .unwrap_or(1.0)
    }

    /// The bytes the availability grid holds (none until the first
    /// strike).
    #[cfg(test)]
    pub(crate) fn grid_bytes(&self) -> usize {
        self.availability.capacity() * std::mem::size_of::<f64>()
    }
}

/// Network carbon charged per re-sent attempt, gCO2e (the extra
/// radio/WAN transfer of the retry).
const RETRY_NETWORK_GRAMS_PER_ATTEMPT: f64 = 0.002;

/// What a client does after a request fails: bounded retry rounds, each
/// attempt charged its network carbon, with an optional hedge to the
/// standby fallback site once retries exhaust.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    max_retries: usize,
    hedge_to_fallback: bool,
}

impl RetryPolicy {
    /// A policy with `max_retries` retry rounds and 2 mgCO2e of network
    /// carbon per re-sent attempt; no hedging.
    ///
    /// # Panics
    ///
    /// Panics if `max_retries` is zero — use no policy instead.
    #[must_use]
    pub fn new(max_retries: usize) -> Self {
        assert!(max_retries > 0, "a retry policy needs at least one retry");
        Self {
            max_retries,
            hedge_to_fallback: false,
        }
    }

    /// After the retry rounds exhaust, hedge what is left to the
    /// resilience policy's fallback site.
    #[must_use]
    pub fn hedge_to_fallback(mut self) -> Self {
        self.hedge_to_fallback = true;
        self
    }

    /// Number of retry rounds.
    #[must_use]
    pub fn max_retries(&self) -> usize {
        self.max_retries
    }

    /// Whether exhausted retries hedge to the fallback site.
    #[must_use]
    pub fn hedges(&self) -> bool {
        self.hedge_to_fallback
    }

    /// Network carbon charged per re-sent attempt, gCO2e.
    #[must_use]
    pub fn attempt_grams(&self) -> f64 {
        RETRY_NETWORK_GRAMS_PER_ATTEMPT
    }
}

/// What the operator does once client retries exhaust: reroute to real
/// spare capacity, shed a low-priority fraction, then brown-out — serve
/// the remainder at degraded quality by stretching capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationLadder {
    low_priority_fraction: f64,
    brownout_stretch: f64,
}

impl DegradationLadder {
    /// The first rung only: the operator (with a truthful health view)
    /// reroutes unserved traffic to any real spare capacity.
    #[must_use]
    pub fn new() -> Self {
        Self {
            low_priority_fraction: 0.0,
            brownout_stretch: 1.0,
        }
    }

    /// Sheds up to `fraction` of the still-unserved traffic as
    /// low-priority before browning out.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn shed_low_priority(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "the low-priority fraction must be in [0, 1]"
        );
        self.low_priority_fraction = fraction;
        self
    }

    /// Serves what remains at degraded quality, stretching each site's
    /// true capacity by `stretch` (≥ 1.0; 1.0 disables the rung).
    ///
    /// # Panics
    ///
    /// Panics if `stretch` is below 1.0.
    #[must_use]
    pub fn brownout(mut self, stretch: f64) -> Self {
        assert!(stretch >= 1.0, "a brown-out stretch cannot shrink capacity");
        self.brownout_stretch = stretch;
        self
    }

    /// Fraction of still-unserved traffic shed as low-priority.
    #[must_use]
    pub fn low_priority_fraction(&self) -> f64 {
        self.low_priority_fraction
    }

    /// The brown-out capacity stretch factor (1.0 = disabled).
    #[must_use]
    pub fn brownout_stretch(&self) -> f64 {
        self.brownout_stretch
    }
}

impl Default for DegradationLadder {
    fn default() -> Self {
        Self::new()
    }
}

/// The failure-aware serving policy of a lifecycle run: how stale the
/// router's health view is, what clients do about failures, what the
/// operator does when retries exhaust, and which site (if any) is held
/// back as a standby fallback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    detection_lag_windows: usize,
    retry: Option<RetryPolicy>,
    degradation: Option<DegradationLadder>,
    fallback_site: Option<usize>,
}

impl ResiliencePolicy {
    /// The do-nothing policy: an omniscient router (no detection lag),
    /// no retries, no degradation, no fallback.
    #[must_use]
    pub fn new() -> Self {
        Self {
            detection_lag_windows: 0,
            retry: None,
            degradation: None,
            fallback_site: None,
        }
    }

    /// Sets the health-view detection lag in routing windows: window `w`
    /// is planned from the availability that was true at `w - lag`.
    /// Zero means the router sees the truth.
    #[must_use]
    pub fn detection_lag_windows(mut self, windows: usize) -> Self {
        self.detection_lag_windows = windows;
        self
    }

    /// Installs a client retry policy.
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Installs an operator degradation ladder.
    #[must_use]
    pub fn degradation(mut self, ladder: DegradationLadder) -> Self {
        self.degradation = Some(ladder);
        self
    }

    /// Holds site `site` back as a standby fallback: the router assigns
    /// it no primary traffic, and hedged requests (see
    /// [`RetryPolicy::hedge_to_fallback`]) land on it.
    #[must_use]
    pub fn fallback_site(mut self, site: usize) -> Self {
        self.fallback_site = Some(site);
        self
    }

    /// The health-view detection lag, routing windows.
    #[must_use]
    pub fn lag_windows(&self) -> usize {
        self.detection_lag_windows
    }

    /// The client retry policy, if any.
    #[must_use]
    pub fn retry_policy(&self) -> Option<&RetryPolicy> {
        self.retry.as_ref()
    }

    /// The operator degradation ladder, if any.
    #[must_use]
    pub fn degradation_ladder(&self) -> Option<&DegradationLadder> {
        self.degradation.as_ref()
    }

    /// The standby fallback site index, if any.
    #[must_use]
    pub fn fallback(&self) -> Option<usize> {
        self.fallback_site
    }
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// The resolved serving outcome of one routing window under faults: who
/// served what, what was retried where, and what finally failed. All
/// rates are window-mean requests/second.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResolution {
    /// True availability per site, from the fault plan.
    pub avail: Vec<f64>,
    /// `first_served / assigned` per site — exactly 1.0 when the site
    /// took everything the router sent, so the measured slice replays
    /// the planned load's bits unscaled.
    pub delivered_ratio: Vec<f64>,
    /// Traffic landed on each site *beyond* its first-attempt share:
    /// successful retries, hedges, reroutes and brown-out serving.
    pub extra_served_mean: Vec<f64>,
    /// Retry/hedge attempts aimed at each site (landed or not); each is
    /// charged the retry policy's network carbon.
    pub retry_attempt_mean: Vec<f64>,
    /// Recovered via client retries.
    pub retried_ok_mean: f64,
    /// Recovered via the hedge to the fallback site.
    pub hedged_mean: f64,
    /// Recovered via the operator reroute rung.
    pub rerouted_mean: f64,
    /// Served at degraded quality via the brown-out rung.
    pub brownout_mean: f64,
    /// Shed as low-priority by the degradation ladder.
    pub lp_shed_mean: f64,
    /// Finally failed: nothing on the ladder could place it.
    pub failed_mean: f64,
}

impl WindowResolution {
    /// The outcome of a window nothing disturbed: every site fully
    /// available and delivering its whole share on first attempt,
    /// nothing retried, degraded or failed.
    #[must_use]
    pub fn healthy(sites: usize) -> Self {
        Self {
            avail: vec![1.0; sites],
            delivered_ratio: vec![1.0; sites],
            extra_served_mean: vec![0.0; sites],
            retry_attempt_mean: vec![0.0; sites],
            retried_ok_mean: 0.0,
            hedged_mean: 0.0,
            rerouted_mean: 0.0,
            brownout_mean: 0.0,
            lp_shed_mean: 0.0,
            failed_mean: 0.0,
        }
    }
}

/// Resolves one window's serving outcome: first attempts against true
/// capacity, then the retry rounds (targeted by the *observed*, possibly
/// stale, capacity), the hedge, and the degradation ladder. Pure
/// arithmetic on mean rates; deterministic.
///
/// A first attempt fails only at a site whose true capacity is below the
/// capacity the router observed. Elsewhere the router's plan fits under
/// its capacity-safe contract, and any excess is rounding: its share
/// `peak × (cap / peak)` can land one ulp above `cap`.
#[must_use]
pub fn resolve_window(
    assigned_mean: &[f64],
    true_cap: &[f64],
    observed_cap: &[f64],
    avail: &[f64],
    policy: &ResiliencePolicy,
) -> WindowResolution {
    let sites = assigned_mean.len();
    let mut delivered_ratio = vec![1.0; sites];
    let mut extra = vec![0.0; sites];
    let mut attempts = vec![0.0; sites];
    let mut spare = vec![0.0; sites];
    let mut pool = 0.0;
    for s in 0..sites {
        let first = if true_cap[s] < observed_cap[s] {
            assigned_mean[s].min(true_cap[s])
        } else {
            assigned_mean[s]
        };
        if assigned_mean[s] > 0.0 && first < assigned_mean[s] {
            delivered_ratio[s] = first / assigned_mean[s];
            pool += assigned_mean[s] - first;
        }
        spare[s] = (true_cap[s] - first).max(0.0);
    }

    let mut retried_ok = 0.0;
    let mut hedged = 0.0;
    let mut rerouted = 0.0;
    let mut brownout = 0.0;
    let mut lp_shed = 0.0;
    let fallback = policy.fallback();

    if let Some(retry) = policy.retry_policy() {
        for _round in 0..retry.max_retries() {
            if pool <= 0.0 {
                break;
            }
            // Clients re-send in proportion to the capacity they *believe*
            // is healthy; the standby fallback is invisible to them.
            let total_observed: f64 = (0..sites)
                .filter(|s| Some(*s) != fallback)
                .map(|s| observed_cap[s])
                .sum();
            if total_observed <= 0.0 {
                break;
            }
            let mut round_ok = 0.0;
            for s in 0..sites {
                if Some(s) == fallback || observed_cap[s] <= 0.0 {
                    continue;
                }
                let aimed = pool * observed_cap[s] / total_observed;
                attempts[s] += aimed;
                let landed = aimed.min(spare[s]);
                spare[s] -= landed;
                extra[s] += landed;
                round_ok += landed;
            }
            retried_ok += round_ok;
            pool -= round_ok;
        }
        if retry.hedges() {
            if let Some(f) = fallback {
                if pool > 0.0 {
                    attempts[f] += pool;
                    let landed = pool.min(spare[f]);
                    spare[f] -= landed;
                    extra[f] += landed;
                    hedged = landed;
                    pool -= landed;
                }
            }
        }
    }

    if let Some(ladder) = policy.degradation_ladder() {
        // Rung 1: the operator sees true spare capacity and reroutes.
        if pool > 0.0 {
            for s in 0..sites {
                if pool <= 0.0 {
                    break;
                }
                let landed = pool.min(spare[s]);
                spare[s] -= landed;
                extra[s] += landed;
                rerouted += landed;
                pool -= landed;
            }
        }
        // Rung 2: shed the low-priority share of what is still unserved.
        if pool > 0.0 && ladder.low_priority_fraction() > 0.0 {
            lp_shed = pool * ladder.low_priority_fraction();
            pool -= lp_shed;
        }
        // Rung 3: brown-out — stretch true capacity and serve degraded.
        if pool > 0.0 && ladder.brownout_stretch() > 1.0 {
            for s in 0..sites {
                if pool <= 0.0 {
                    break;
                }
                let headroom = true_cap[s] * (ladder.brownout_stretch() - 1.0);
                let landed = pool.min(headroom);
                extra[s] += landed;
                brownout += landed;
                pool -= landed;
            }
        }
    }

    WindowResolution {
        avail: avail.to_vec(),
        delivered_ratio,
        extra_served_mean: extra,
        retry_attempt_mean: attempts,
        retried_ok_mean: retried_ok,
        hedged_mean: hedged,
        rerouted_mean: rerouted,
        brownout_mean: brownout,
        lp_shed_mean: lp_shed,
        failed_mean: pool.max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_generates_the_fault_free_plan() {
        let plan = FaultPlan::generate(&FaultConfig::disabled(), 48, 3, 6, 42);
        for w in 0..48 {
            for s in 0..3 {
                assert_eq!(plan.availability(w, s), 1.0);
            }
        }
        assert_eq!(plan.grid_bytes(), 0);
    }

    #[test]
    fn generated_plans_are_deterministic_and_seed_sensitive() {
        let config = FaultConfig::disabled()
            .grid_outages(3.0, 2)
            .firmware_batches(2.0, 0.4, 3)
            .thermal_shutdowns(4.0, 1);
        let a = FaultPlan::generate(&config, 240, 2, 6, 7);
        let b = FaultPlan::generate(&config, 240, 2, 6, 7);
        assert_eq!(a, b);
        let c = FaultPlan::generate(&config, 240, 2, 6, 8);
        assert_ne!(a, c, "a different seed should reschedule the faults");
        // Availability stays in [0, 1], and these rates strike within 40
        // days.
        let mut struck = 0;
        for w in 0..240 {
            for s in 0..2 {
                let avail = a.availability(w, s);
                assert!((0.0..=1.0).contains(&avail));
                struck += usize::from(avail < 1.0);
            }
        }
        assert!(struck > 0, "no window lost capacity");
        assert_eq!(a.grid_bytes(), 240 * 2 * 8);
    }

    #[test]
    #[should_panic(expected = "window index 4 out of range")]
    fn an_out_of_range_window_panics_on_a_plan_without_a_grid() {
        let plan = FaultPlan::generate(&FaultConfig::disabled(), 4, 2, 2, 1);
        let _ = plan.availability(4, 0);
    }

    #[test]
    #[should_panic(expected = "site index 2 out of range")]
    fn an_out_of_range_site_panics_instead_of_reading_the_next_window() {
        // Window 0, site 2 of a two-site plan would otherwise read
        // window 1's first site.
        let plan = FaultPlan::generate(&FaultConfig::disabled(), 4, 2, 2, 1);
        let _ = plan.availability(0, 2);
    }

    #[test]
    fn outages_zero_a_site_and_firmware_takes_a_fraction() {
        let outage = FaultConfig::disabled().grid_outages(1.0e-9, 4);
        let plan = FaultPlan::generate(&outage, 8, 1, 1, 1);
        // A near-certain hazard strikes immediately and repeatedly.
        assert!(plan.availability(0, 0) == 0.0);
        let firmware = FaultConfig::disabled().firmware_batches(1.0e-9, 0.3, 1);
        let plan = FaultPlan::generate(&firmware, 4, 1, 1, 1);
        assert!((plan.availability(0, 0) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn resolution_conserves_the_assigned_traffic() {
        let policy = ResiliencePolicy::new()
            .detection_lag_windows(1)
            .retry(RetryPolicy::new(2).hedge_to_fallback())
            .degradation(
                DegradationLadder::new()
                    .shed_low_priority(0.5)
                    .brownout(1.2),
            )
            .fallback_site(2);
        let assigned = [400.0, 300.0, 0.0];
        let true_cap = [100.0, 300.0, 250.0];
        let observed = [400.0, 300.0, 0.0];
        let avail = [0.25, 1.0, 1.0];
        let res = resolve_window(&assigned, &true_cap, &observed, &avail, &policy);
        let served: f64 = (0..3)
            .map(|s| assigned[s] * res.delivered_ratio[s] + res.extra_served_mean[s])
            .sum();
        let total = served + res.lp_shed_mean + res.failed_mean;
        let offered: f64 = assigned.iter().sum();
        assert!(
            (total - offered).abs() < 1e-9 * offered,
            "conservation: {total} vs {offered}"
        );
        // The dark site delivers only its surviving quarter first time.
        assert_eq!(res.delivered_ratio[0], 0.25);
        assert!(res.hedged_mean > 0.0, "the fallback has spare capacity");
    }

    #[test]
    fn stale_retries_fail_against_dead_capacity() {
        // One site, fully dark, but the observed view still says healthy:
        // every retry round lands on dead capacity and fails.
        let policy = ResiliencePolicy::new()
            .detection_lag_windows(2)
            .retry(RetryPolicy::new(3));
        let res = resolve_window(&[200.0], &[0.0], &[400.0], &[0.0], &policy);
        assert_eq!(res.retried_ok_mean, 0.0);
        assert_eq!(res.failed_mean, 200.0);
        // Three rounds of 200 qps aimed at the dead site, all charged.
        assert!((res.retry_attempt_mean[0] - 600.0).abs() < 1e-9);
    }

    #[test]
    fn no_policy_means_first_attempt_failures_are_final() {
        let res = resolve_window(
            &[300.0],
            &[100.0],
            &[300.0],
            &[1.0 / 3.0],
            &ResiliencePolicy::new(),
        );
        assert!((res.failed_mean - 200.0).abs() < 1e-9);
        assert_eq!(res.retried_ok_mean, 0.0);
        assert_eq!(res.extra_served_mean[0], 0.0);
    }

    #[test]
    fn fault_free_resolution_is_the_identity() {
        let policy = ResiliencePolicy::new()
            .detection_lag_windows(3)
            .retry(RetryPolicy::new(2));
        let res = resolve_window(
            &[250.0, 100.0],
            &[400.0, 200.0],
            &[400.0, 200.0],
            &[1.0, 1.0],
            &policy,
        );
        assert_eq!(res, WindowResolution::healthy(2));
    }

    #[test]
    fn a_one_ulp_overshoot_of_an_intact_site_is_not_a_failure() {
        // The router's `peak × (cap / peak)` share can land one ulp above
        // an intact site's capacity: rounding, not a fault.
        let over = f64::from_bits(100.0_f64.to_bits() + 1);
        assert!(over > 100.0);
        let intact = resolve_window(
            &[over, 50.0],
            &[100.0, 80.0],
            &[100.0, 80.0],
            &[1.0, 1.0],
            &ResiliencePolicy::new(),
        );
        assert_eq!(intact, WindowResolution::healthy(2));
        // The same overshoot onto capacity the router could not see dead
        // still fails the unseen share.
        let hidden = resolve_window(&[over], &[60.0], &[100.0], &[0.6], &ResiliencePolicy::new());
        assert!((hidden.failed_mean - 40.0).abs() < 1e-9);
    }
}
