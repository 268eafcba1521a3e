//! Multi-year, day-stepped fleet lifecycle simulation, the crate's one
//! fleet engine, and its run config ([`LifecycleConfig`]). A one-day run
//! over leased sites is the per-window fleet study; a decade over device
//! cohorts is the lifecycle study.
//!
//! The paper's headline claim rests on *amortisation over time*: a
//! junk-phone cloudlet only beats a cloud instance on lifetime carbon if
//! the phones survive years of service, absorbing battery replacements
//! and device churn along the way (Sections 5–6). The other layers of
//! this crate each model one slice of that story — a day of smart
//! charging, one routing window of serving — and this module couples
//! them over a deployment lifetime:
//!
//! * every cohort site carries per-device [`BatteryState`]s whose wear is
//!   integrated day by day from the *simulated* smart-charging/discharge
//!   schedule (not a static replacement constant); worn packs are
//!   replaced and charged their embodied carbon on the day it happens;
//! * devices fail stochastically (seeded through [`decorrelate_seed`],
//!   so runs are deterministic at any worker count) and are replaced from
//!   junkyard stock after a configurable lag, each replacement charging
//!   its Reuse-Factor embodied share;
//! * grid traces repeat over the horizon: each site's trace is split into
//!   whole days once ([`IntensityTrace::day`], only as many as the horizon
//!   reaches) and horizon day `d` reads day `d % trace_days`; routing is
//!   re-planned every window from the cohort capacity actually alive
//!   that day;
//! * accounting cells are one *(year, site)* pair.
//!
//! Every window takes one serving path. The router plans it on the
//! capacity it observes, and [`resolve_window`] resolves what the sites
//! actually deliver: first attempts, retries, the hedge and the
//! degradation ladder. A fault-free window resolves to
//! [`WindowResolution::healthy`], and only the windows that differ from
//! it are stored, so a fault-free run stores no resolution at all.
//!
//! A run has three phases, and any number of fleets can share the middle
//! one. *Plan* ([`LifecycleSim::plan`]) steps each site's daily dynamics,
//! one site per worker, then walks the windows once: it routes each
//! window, resolves it and adds each site's slice load to its (year,
//! site) cell. Within a cell, identical `(start, end)` load windows share
//! one slice, seeded from the first window with that pair (the schedule
//! repeats daily and capacities are piecewise-constant between failure
//! events, so a multi-year horizon needs only a few hundred slices). A
//! plan is a pure function of its fleet and holds none of its sites. It
//! keeps the router's inputs, not its per-window output: a fault-free
//! hourly plan holds about 3 bytes per (window, site), most of it the
//! daily dynamics. *Measure* ([`LifecycleSim::run_batch`]) looks every
//! member's slices up in a caller-owned [`MeasuredSlices`] table and runs
//! the union of the missing ones in one [`fan_out`], whose workers claim
//! them one at a time and hand them back in plan order. *Account* walks
//! each member's windows again in the same order, routes each one again
//! with the same function and prices it from the measured slices,
//! members in input order. A slice is a pure function of its key, so
//! every member's result is bit-identical to its own [`LifecycleSim::run`]
//! (a batch of one on a fresh table), serial or threaded, and fleets
//! that replay the same slices (the resilience study's strategies, the
//! planner's rungs) simulate each one once.
//!
//! While part of a cohort is down the full-strength compiled topology
//! still serves the slice and the measured utilisation is scaled by the
//! inverse alive fraction — latency during outages is therefore slightly
//! optimistic, which is acceptable for carbon accounting.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::mem;
use std::sync::Arc;

use junkyard_battery::charging::SmartChargePolicy;
use junkyard_battery::sim::simulate_day;
use junkyard_battery::state::BatteryState;
use junkyard_battery::trace_ext::DayStats;
use junkyard_carbon::convert::{count_f64, counts_ratio, floor_index, index_u64, unit_draw};
use junkyard_carbon::units::{CarbonIntensity, GramsCo2e, Millis, Qps, TimeSpan, Watts};
use junkyard_devices::battery::BatterySpec;
use junkyard_devices::components::ComponentBreakdown;
use junkyard_devices::device::DeviceSpec;
use junkyard_devices::power::LoadProfile;
use junkyard_grid::trace::IntensityTrace;
use junkyard_microsim::compiled::CompiledSim;
use junkyard_microsim::fanout::{self, fan_out};
use junkyard_microsim::sim::{Phase, SimError, Simulation, Workload};
use junkyard_microsim::sweep::decorrelate_seed;
use junkyard_obs::{ConservedLedger, EventKind, NoopRecorder, Recorder, TraceEvent};

use crate::faults::{
    resolve_window, FaultConfig, FaultPlan, ResiliencePolicy, RetryPolicy, WindowResolution,
};
use crate::routing::{plan_window, record_routes, RoutingPolicy};
use crate::schedule::{DiurnalSchedule, LoadWindow};
use crate::site::{second_life_embodied, FleetSite, GridRegion};

/// Days per simulated year (the lifecycle steps whole days; leap days are
/// ignored like the paper's month-granular accounting).
pub const DAYS_PER_YEAR: usize = 365;

/// A site-builder configuration error: the requested option does not
/// apply to the site's backend kind, or a parameter is out of range. The
/// message says what to do instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteConfigError {
    message: String,
}

impl SiteConfigError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SiteConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SiteConfigError {}

/// One device slot of a cohort site: the battery of the phone occupying
/// it, what a junkyard replacement costs in embodied carbon and what the
/// slot contributes to serving capacity and power.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortDevice {
    serving_power: Watts,
    battery: BatterySpec,
    replacement_embodied: GramsCo2e,
    capacity_qps: f64,
    idle_power: Watts,
    dynamic_power: Watts,
}

impl CohortDevice {
    /// Creates a device slot. `serving_power` is the average draw the
    /// smart-charging schedule plans against; `replacement_embodied` is
    /// the second-life (Reuse-Factor) share charged each time this slot is
    /// refilled from junkyard stock; `capacity_qps` is the slot's share of
    /// the site's serving capacity.
    ///
    /// # Panics
    ///
    /// Panics if `serving_power` or `capacity_qps` is not strictly
    /// positive.
    #[must_use]
    pub fn new(
        serving_power: Watts,
        battery: BatterySpec,
        replacement_embodied: GramsCo2e,
        capacity_qps: f64,
    ) -> Self {
        assert!(
            serving_power.value() > 0.0,
            "serving power must be positive"
        );
        assert!(capacity_qps > 0.0, "device capacity must be positive");
        Self {
            serving_power,
            battery,
            replacement_embodied,
            capacity_qps,
            idle_power: Watts::ZERO,
            dynamic_power: Watts::ZERO,
        }
    }

    /// The slot a catalog phone fills: its light-medium average draw,
    /// its battery, the Reuse-Factor second-life share of its embodied
    /// carbon in the compute-node role, and its measured idle and
    /// full-load power.
    ///
    /// # Errors
    ///
    /// Returns a [`SiteConfigError`] naming the model if it carries no
    /// battery or no component breakdown.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_qps` is not strictly positive.
    pub fn from_catalog(device: &DeviceSpec, capacity_qps: f64) -> Result<Self, SiteConfigError> {
        let missing =
            |what: &str| SiteConfigError::new(format!("{} carries no {what}", device.name()));
        let battery = device.battery().ok_or_else(|| missing("battery"))?;
        let reuse = device
            .components()
            .ok_or_else(|| missing("component breakdown"))?
            .reuse_factor(&ComponentBreakdown::compute_node_role());
        let curve = device.power();
        Ok(Self::new(
            device.average_power(&LoadProfile::light_medium()),
            battery,
            second_life_embodied(device.embodied(), &reuse),
            capacity_qps,
        )
        .power(curve.idle(), curve.at_full_load() - curve.idle()))
    }

    /// Sets the slot's electrical power model: `idle` always drawn while
    /// the device is alive, `dynamic` added at 100 % utilisation.
    #[must_use]
    pub fn power(mut self, idle: Watts, dynamic: Watts) -> Self {
        self.idle_power = idle;
        self.dynamic_power = dynamic;
        self
    }

    /// The slot's battery pack specification.
    #[must_use]
    pub fn battery(&self) -> BatterySpec {
        self.battery
    }

    /// The slot's share of the site's serving capacity, requests/second.
    #[must_use]
    pub fn capacity_qps(&self) -> f64 {
        self.capacity_qps
    }

    /// Embodied carbon charged when the slot is refilled from stock.
    #[must_use]
    pub fn replacement_embodied(&self) -> GramsCo2e {
        self.replacement_embodied
    }
}

/// A cohort of repurposed phones serving one site: per-device batteries,
/// wear, failures and junkyard replacements.
#[derive(Debug, Clone)]
struct Cohort {
    name: String,
    sim: Arc<CompiledSim>,
    request_type: Option<String>,
    region: GridRegion,
    devices: Vec<CohortDevice>,
    install_embodied: GramsCo2e,
    overhead_power: Watts,
    policy: SmartChargePolicy,
    mean_days_between_failures: f64,
    replacement_lag_days: usize,
}

/// How one lifecycle site is provisioned.
#[derive(Debug, Clone)]
enum Backend {
    /// A device cohort whose capacity, power and embodied carbon move
    /// day by day.
    Cohort(Cohort),
    /// Rented capacity (the cloud backend): a [`FleetSite`] whose fixed
    /// capacity, power model and operational scale hold every day, and
    /// whose embodied carbon amortises linearly over its lease.
    Leased(FleetSite),
}

/// One site of a lifecycle fleet: a compiled serving simulation, a grid
/// region (extended periodically over the horizon) and either a device
/// cohort or leased capacity.
#[derive(Debug, Clone)]
pub struct LifecycleSite {
    backend: Backend,
}

impl LifecycleSite {
    /// Creates a cohort site: `devices` drawn from the junkyard catalog
    /// serve `sim`'s traffic from `region`'s grid. `install_embodied` is
    /// charged on day 0 (the Reuse-Factor share of the initial cohort plus
    /// any new peripherals); batteries wear under the default
    /// smart-charging policy and failures are disabled until
    /// [`LifecycleSite::failures`] turns them on.
    ///
    /// # Errors
    ///
    /// Returns an error if the cohort is empty, the region's trace does
    /// not cover a whole number of days (at least one) — periodic day
    /// tiling and the sample-level wrap-around of window means must agree
    /// over a multi-year horizon — or the trace contains a non-finite
    /// intensity sample.
    pub fn try_cohort(
        name: impl Into<String>,
        sim: &Simulation,
        region: GridRegion,
        devices: Vec<CohortDevice>,
        install_embodied: GramsCo2e,
    ) -> Result<Self, SiteConfigError> {
        Self::try_shared_cohort(
            name,
            Arc::new(sim.compile()),
            region,
            devices,
            install_embodied,
        )
    }

    /// [`LifecycleSite::try_cohort`] on a simulation compiled once and
    /// shared: sites built from one handle serve from the same compiled
    /// simulation, so many fleets built from few cohort recipes (the
    /// planner's candidates) neither compile nor hold a copy each, and a
    /// [`MeasuredSlices`] table recognises the handle without comparing
    /// the simulations.
    ///
    /// # Errors
    ///
    /// As [`LifecycleSite::try_cohort`].
    pub fn try_shared_cohort(
        name: impl Into<String>,
        sim: Arc<CompiledSim>,
        region: GridRegion,
        devices: Vec<CohortDevice>,
        install_embodied: GramsCo2e,
    ) -> Result<Self, SiteConfigError> {
        if devices.is_empty() {
            return Err(SiteConfigError::new(
                "a cohort needs at least one device — add CohortDevice entries or use a \
                 leased site",
            ));
        }
        Self::check_region(&region)?;
        Ok(Self {
            backend: Backend::Cohort(Cohort {
                name: name.into(),
                sim,
                request_type: None,
                region,
                devices,
                install_embodied,
                overhead_power: Watts::ZERO,
                policy: SmartChargePolicy::paper_default(),
                mean_days_between_failures: 0.0,
                replacement_lag_days: 0,
            }),
        })
    }

    /// Creates a leased site from a fixed-capacity [`FleetSite`] (the
    /// datacenter backend, or any site of the one-day fleet study): its
    /// capacity, power model, operational scale and request type hold
    /// every day of the horizon, and its embodied carbon is charged a
    /// day's share of its lease each day.
    ///
    /// # Errors
    ///
    /// Returns an error if the site's capacity is not strictly positive
    /// and finite, the region's trace does not cover a whole number of
    /// days, or the trace contains a non-finite intensity sample.
    pub fn try_leased(site: FleetSite) -> Result<Self, SiteConfigError> {
        let capacity_qps = site.capacity_qps();
        if !(capacity_qps > 0.0 && capacity_qps.is_finite()) {
            return Err(SiteConfigError::new(format!(
                "site capacity must be positive and finite, got {capacity_qps}"
            )));
        }
        Self::check_region(site.region())?;
        Ok(Self {
            backend: Backend::Leased(site),
        })
    }

    /// Shared `try_*` validation: whole-day trace coverage (periodic day
    /// tiling and sample-level wrap-around of window means must agree
    /// over a multi-year horizon) and finite intensity samples.
    fn check_region(region: &GridRegion) -> Result<(), SiteConfigError> {
        let days = region.trace().duration().days();
        if !(days >= 1.0 - 1e-9 && (days - days.round()).abs() < 1e-9) {
            return Err(SiteConfigError::new(format!(
                "a lifecycle region trace must cover a whole number of days, got {days}"
            )));
        }
        if let Some(pos) = region
            .trace()
            .values()
            .iter()
            .position(|v| !v.grams_per_kwh().is_finite())
        {
            return Err(SiteConfigError::new(format!(
                "region trace sample {pos} is not finite — carbon accounting would poison \
                 every window mean"
            )));
        }
        Ok(())
    }

    /// Restricts the site's workload to a single request type.
    #[must_use]
    pub fn request_type(self, name: impl Into<String>) -> Self {
        let backend = match self.backend {
            Backend::Cohort(cohort) => Backend::Cohort(Cohort {
                request_type: Some(name.into()),
                ..cohort
            }),
            Backend::Leased(site) => Backend::Leased(site.request_type(name)),
        };
        Self { backend }
    }

    /// Sets a cohort site's always-on overhead draw (server fan, switch).
    ///
    /// # Panics
    ///
    /// Panics on a leased site.
    #[must_use]
    pub fn overhead_power(mut self, power: Watts) -> Self {
        match &mut self.backend {
            Backend::Cohort(cohort) => cohort.overhead_power = power,
            Backend::Leased(_) => panic!("overhead power applies to cohort sites"),
        }
        self
    }

    /// Overrides a cohort site's smart-charging policy.
    ///
    /// # Panics
    ///
    /// Panics on a leased site.
    #[must_use]
    pub fn charge_policy(mut self, new_policy: SmartChargePolicy) -> Self {
        match &mut self.backend {
            Backend::Cohort(cohort) => cohort.policy = new_policy,
            Backend::Leased(_) => panic!("charging policy applies to cohort sites"),
        }
        self
    }

    /// Enables stochastic device failures on a cohort site: each alive
    /// device fails with daily hazard `1 - exp(-1 / mean_days)` and its
    /// slot stays empty for `lag_days` whole days before a junkyard
    /// replacement (fresh pack included free with the donor) takes over,
    /// charging the slot's Reuse-Factor embodied share.
    ///
    /// # Errors
    ///
    /// Returns a [`SiteConfigError`] on a leased site (leased backends
    /// have no device slots to fail — model their unavailability with a
    /// [`crate::faults::FaultConfig`] grid outage instead) or when
    /// `mean_days` is not strictly positive.
    pub fn failures(mut self, mean_days: f64, lag_days: usize) -> Result<Self, SiteConfigError> {
        if mean_days <= 0.0 || !mean_days.is_finite() {
            return Err(SiteConfigError::new(format!(
                "failures({mean_days}, {lag_days}) on site '{}': the mean days \
                 between failures must be a positive finite number",
                self.name()
            )));
        }
        match &mut self.backend {
            Backend::Cohort(cohort) => {
                cohort.mean_days_between_failures = mean_days;
                cohort.replacement_lag_days = lag_days;
            }
            Backend::Leased(site) => {
                return Err(SiteConfigError::new(format!(
                    "failures({mean_days}, {lag_days}) on site '{}': stochastic \
                     device failures apply to cohort sites only — a leased backend \
                     has no device slots to fail. Model a leased site's \
                     unavailability with a `FaultConfig` grid outage instead",
                    site.name()
                )));
            }
        }
        Ok(self)
    }

    /// Site name.
    #[must_use]
    pub fn name(&self) -> &str {
        match &self.backend {
            Backend::Cohort(cohort) => &cohort.name,
            Backend::Leased(site) => site.name(),
        }
    }

    /// The grid region powering the site.
    #[must_use]
    pub fn region(&self) -> &GridRegion {
        match &self.backend {
            Backend::Cohort(cohort) => &cohort.region,
            Backend::Leased(site) => site.region(),
        }
    }

    /// The compiled simulation serving the site's slices and its
    /// request-type restriction.
    fn serving(&self) -> (&Arc<CompiledSim>, Option<&str>) {
        match &self.backend {
            Backend::Cohort(cohort) => (&cohort.sim, cohort.request_type.as_deref()),
            Backend::Leased(site) => (site.shared_sim(), site.request_type_name()),
        }
    }
}

/// The run config of a [`LifecycleSim`]: the horizon in days, the
/// routing/accounting windows per day, the measured microsim slice and its
/// warm-up, the root seed and the worker cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleConfig {
    pub(crate) days: usize,
    pub(crate) windows_per_day: usize,
    pub(crate) slice: TimeSpan,
    pub(crate) warmup: TimeSpan,
    pub(crate) seed: u64,
    pub(crate) parallelism: Option<usize>,
}

impl LifecycleConfig {
    /// Defaults for a horizon of `days` simulated days: six 4-hour
    /// routing windows per day, a 1-second measured slice after a
    /// 1-second warm-up, seed 42, machine parallelism. The planner's
    /// coarse fidelity screens a candidate on a few days; accounting
    /// cells still cover at most one year each, so the last is shorter.
    ///
    /// # Panics
    ///
    /// Panics if `days` is zero.
    #[must_use]
    pub fn days(days: usize) -> Self {
        assert!(days > 0, "the lifecycle needs at least one day");
        Self {
            days,
            windows_per_day: 6,
            slice: TimeSpan::from_secs(1.0),
            warmup: TimeSpan::from_secs(1.0),
            seed: 42,
            parallelism: None,
        }
    }

    /// [`LifecycleConfig::days`] for `years` whole years of 365 days.
    ///
    /// # Panics
    ///
    /// Panics if `years` is zero.
    #[must_use]
    pub fn years(years: usize) -> Self {
        Self::days(years * DAYS_PER_YEAR)
    }

    /// Sets the number of routing/accounting windows per day.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn windows_per_day(mut self, windows_per_day: usize) -> Self {
        assert!(windows_per_day > 0, "need at least one window per day");
        self.windows_per_day = windows_per_day;
        self
    }

    /// Sets the measured length of each microsim slice. Latency and
    /// utilisation measured over it are extrapolated to the window.
    ///
    /// The engine accumulates utilisation in one-second buckets, so the
    /// slice must be a whole number of seconds — a fractional trailing
    /// bucket would be divided by a full second and bias utilisation
    /// (and therefore energy and operational carbon) low.
    ///
    /// # Panics
    ///
    /// Panics if not a strictly positive whole number of seconds.
    #[must_use]
    pub fn sim_slice_s(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "slice duration must be positive");
        assert!(
            seconds.fract() == 0.0,
            "slice duration must be a whole number of seconds (1-second utilisation buckets)"
        );
        self.slice = TimeSpan::from_secs(seconds);
        self
    }

    /// Sets the warm-up excluded from each slice's measurements. Like
    /// the slice it is whole seconds, so the measurement window aligns
    /// with the one-second utilisation buckets and no warm-up work leaks
    /// into it.
    ///
    /// # Panics
    ///
    /// Panics if negative or not a whole number of seconds.
    #[must_use]
    pub fn warmup_s(mut self, seconds: f64) -> Self {
        assert!(seconds >= 0.0, "warm-up cannot be negative");
        assert!(
            seconds.fract() == 0.0,
            "warm-up must be a whole number of seconds (1-second utilisation buckets)"
        );
        self.warmup = TimeSpan::from_secs(seconds);
        self
    }

    /// Sets the root seed; failure draws and workload seeds are mixed
    /// from it with [`decorrelate_seed`].
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the number of worker threads; `1` forces a serial run.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        assert!(workers > 0, "a fleet run needs at least one worker");
        self.parallelism = Some(workers);
        self
    }
}

/// The per-day state of one site, produced by the dynamics pass:
/// what the site can serve, what its power model looks like and what
/// embodied carbon the day's events charged.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DayDynamics {
    capacity_qps: f64,
    idle_power: Watts,
    dynamic_power: Watts,
    /// Always-on draw with no battery behind it (fan, switch): billed at
    /// the grid's intensity unscaled, because smart charging cannot
    /// time-shift it.
    overhead_power: Watts,
    utilization_scale: f64,
    operational_scale: f64,
    embodied: GramsCo2e,
    battery_replacements: u32,
    device_failures: u32,
    devices_replaced: u32,
}

/// The per-day ledger merged across a fleet: what the day served and
/// emitted, for cumulative (lifetime-amortised) trajectories at day
/// granularity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DayLedger {
    requests: f64,
    operational: GramsCo2e,
    embodied: GramsCo2e,
    retry: GramsCo2e,
}

impl DayLedger {
    /// Adds another ledger's day, term by term.
    fn add(&mut self, day: &DayLedger) {
        self.requests += day.requests;
        self.operational += day.operational;
        self.embodied += day.embodied;
        self.retry += day.retry;
    }

    /// Requests served during the day.
    #[must_use]
    pub fn requests(&self) -> f64 {
        self.requests
    }

    /// Operational carbon of the day.
    #[must_use]
    pub fn operational(&self) -> GramsCo2e {
        self.operational
    }

    /// Embodied carbon charged to the day.
    #[must_use]
    pub fn embodied(&self) -> GramsCo2e {
        self.embodied
    }

    /// Network and marginal-compute carbon of the day's retries, hedges
    /// and degraded serving (zero on a fault-free run).
    #[must_use]
    pub fn retry_carbon(&self) -> GramsCo2e {
        self.retry
    }

    /// Total carbon of the day.
    #[must_use]
    pub fn carbon(&self) -> GramsCo2e {
        self.operational + self.embodied + self.retry
    }
}

/// One (year, site) cell of the lifecycle accounting grid; its place in
/// [`LifecycleResult::cells`] says which.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LifecycleCell {
    requests: f64,
    dropped_requests: f64,
    operational: GramsCo2e,
    embodied: GramsCo2e,
    retry_carbon: GramsCo2e,
    battery_replacements: u32,
    device_failures: u32,
    devices_replaced: u32,
    worst_median_ms: Millis,
    worst_tail_ms: Millis,
    worst_p99_ms: Millis,
}

impl LifecycleCell {
    /// Adds one of the site's days: what it served and emitted, and the
    /// day's battery, failure and refill events.
    fn add_day(&mut self, day: &DayLedger, state: &DayDynamics) {
        self.requests += day.requests;
        self.operational += day.operational;
        self.retry_carbon += day.retry;
        self.embodied += day.embodied;
        self.battery_replacements += state.battery_replacements;
        self.device_failures += state.device_failures;
        self.devices_replaced += state.devices_replaced;
    }

    /// Widens the cell's worst latencies to a measured slice's.
    fn observe(&mut self, measured: &SliceMeasure) {
        let worse = |a: Millis, b: Millis| Millis::from_millis(a.millis().max(b.millis()));
        self.worst_median_ms = worse(self.worst_median_ms, measured.median);
        self.worst_tail_ms = worse(self.worst_tail_ms, measured.tail);
        self.worst_p99_ms = worse(self.worst_p99_ms, measured.p99);
    }

    /// Requests the site served during the year (assigned demand minus
    /// the slice-measured queue-drop share).
    #[must_use]
    pub fn requests(&self) -> f64 {
        self.requests
    }

    /// Operational carbon of the year.
    #[must_use]
    pub fn operational(&self) -> GramsCo2e {
        self.operational
    }

    /// Embodied carbon charged during the year (install on day 0, battery
    /// packs, device replacements, leased amortisation slices).
    #[must_use]
    pub fn embodied(&self) -> GramsCo2e {
        self.embodied
    }

    /// Network and marginal-compute carbon of retries, hedges and
    /// degraded serving charged to the site during the year (zero on a
    /// fault-free run).
    #[must_use]
    pub fn retry_carbon(&self) -> GramsCo2e {
        self.retry_carbon
    }

    /// Total carbon of the cell.
    #[must_use]
    pub fn carbon(&self) -> GramsCo2e {
        self.operational + self.embodied + self.retry_carbon
    }

    /// Battery packs replaced during the year.
    #[must_use]
    pub fn battery_replacements(&self) -> u32 {
        self.battery_replacements
    }

    /// Device failures during the year.
    #[must_use]
    pub fn device_failures(&self) -> u32 {
        self.device_failures
    }

    /// Failed slots refilled from junkyard stock during the year.
    #[must_use]
    pub fn devices_replaced(&self) -> u32 {
        self.devices_replaced
    }

    /// The worst measured median latency of the year's slices, ms.
    #[must_use]
    pub fn worst_median_ms(&self) -> f64 {
        self.worst_median_ms.millis()
    }

    /// The worst measured tail (90th percentile) latency of the year's
    /// slices, ms.
    #[must_use]
    pub fn worst_tail_ms(&self) -> f64 {
        self.worst_tail_ms.millis()
    }

    /// The worst measured 99th-percentile latency of the year's slices,
    /// ms.
    #[must_use]
    pub fn worst_p99_ms(&self) -> f64 {
        self.worst_p99_ms.millis()
    }
}

/// The serving health of one routing window: what the router assigned to
/// sites, what was actually delivered (including retries, hedges and
/// degraded serving), and what finally failed. Request counts, not rates;
/// queue drops are accounted separately in the cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowHealth {
    offered: f64,
    served: f64,
    failed: f64,
}

impl WindowHealth {
    /// Requests the router assigned to sites during the window.
    #[must_use]
    pub fn offered(&self) -> f64 {
        self.offered
    }

    /// Requests delivered during the window (first attempts plus
    /// retries, hedges, reroutes and brown-out serving).
    #[must_use]
    pub fn served(&self) -> f64 {
        self.served
    }

    /// Requests that failed during the window after the whole
    /// retry/degradation ladder.
    #[must_use]
    pub fn failed(&self) -> f64 {
        self.failed
    }

    /// The window's success rate: delivered over assigned (1.0 for an
    /// idle window).
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.offered > 0.0 {
            (self.offered - self.failed) / self.offered
        } else {
            1.0
        }
    }
}

/// Result of a lifecycle run: the (year, site) accounting grid, a
/// fleet-wide per-day ledger and lifetime totals.
///
/// lint: conserved — every numeric field below must be pinned by a test
/// under `tests/` (the conservation audit fails otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleResult {
    policy: RoutingPolicy,
    site_names: Vec<String>,
    years: usize,
    /// Year-major: `cells[year * sites + site]`.
    cells: Vec<LifecycleCell>,
    day_ledger: Vec<DayLedger>,
    declined_requests: f64,
    dropped_requests: f64,
    total_requests: f64,
    total_operational: GramsCo2e,
    total_embodied: GramsCo2e,
    failed_requests: f64,
    retried_ok_requests: f64,
    hedged_requests: f64,
    rerouted_requests: f64,
    brownout_requests: f64,
    low_priority_shed_requests: f64,
    total_retry_carbon: GramsCo2e,
    window_health: Vec<WindowHealth>,
    horizon_seconds: f64,
}

impl LifecycleResult {
    /// The routing policy the run used.
    #[must_use]
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Site names, in cell order.
    #[must_use]
    pub fn site_names(&self) -> &[String] {
        &self.site_names
    }

    /// Simulated years.
    #[must_use]
    pub fn years(&self) -> usize {
        self.years
    }

    /// The full accounting grid, year-major.
    #[must_use]
    pub fn cells(&self) -> &[LifecycleCell] {
        &self.cells
    }

    /// The cell of one (year, site) pair.
    ///
    /// # Panics
    ///
    /// Panics if `site` or `year` is outside the run.
    #[must_use]
    pub fn cell(&self, year: usize, site: usize) -> &LifecycleCell {
        let sites = self.site_names.len();
        assert!(
            site < sites,
            "site index {site} out of range ({sites} sites)"
        );
        &self.cells[year * sites + site]
    }

    /// The fleet-wide per-day ledger, one entry per day of the horizon.
    #[must_use]
    pub fn day_ledger(&self) -> &[DayLedger] {
        &self.day_ledger
    }

    /// Requests the router could not place anywhere over the horizon
    /// (demand beyond the fleet's aggregate capacity cap).
    #[must_use]
    pub fn router_declined_requests(&self) -> f64 {
        self.declined_requests
    }

    /// Requests sites accepted but dropped at bounded application queues
    /// over the horizon (zero under the default unbounded `ServerModel`).
    #[must_use]
    pub fn queue_dropped_requests(&self) -> f64 {
        self.dropped_requests
    }

    /// Requests deliberately lost anywhere: router-declined plus
    /// queue-dropped plus low-priority shed from the degradation ladder
    /// — the historical "shed" total. The components are reported
    /// separately by [`Self::router_declined_requests`],
    /// [`Self::queue_dropped_requests`] and
    /// [`Self::low_priority_shed_requests`]. Requests that *failed*
    /// (landed on dead capacity and exhausted the ladder) are not shed —
    /// see [`Self::failed_requests`].
    #[must_use]
    pub fn shed_requests(&self) -> f64 {
        self.declined_requests + self.dropped_requests + self.low_priority_shed_requests
    }

    /// Requests that failed over the horizon: sent to capacity that was
    /// not actually there (stale health view) and not recovered by
    /// retries, hedging or the degradation ladder. Zero on a fault-free
    /// run.
    #[must_use]
    pub fn failed_requests(&self) -> f64 {
        self.failed_requests
    }

    /// Requests recovered by client retries over the horizon.
    #[must_use]
    pub fn retried_ok_requests(&self) -> f64 {
        self.retried_ok_requests
    }

    /// Requests recovered by hedging to the standby fallback site.
    #[must_use]
    pub fn hedged_requests(&self) -> f64 {
        self.hedged_requests
    }

    /// Requests recovered by the operator reroute rung.
    #[must_use]
    pub fn rerouted_requests(&self) -> f64 {
        self.rerouted_requests
    }

    /// Requests served at degraded quality by the brown-out rung.
    #[must_use]
    pub fn brownout_requests(&self) -> f64 {
        self.brownout_requests
    }

    /// Requests shed as low-priority by the degradation ladder.
    #[must_use]
    pub fn low_priority_shed_requests(&self) -> f64 {
        self.low_priority_shed_requests
    }

    /// Network and marginal-compute carbon of every retry, hedge and
    /// degraded serving attempt over the horizon — the explicit carbon
    /// price of the resilience machinery, kept out of
    /// [`Self::total_operational`] so it is separately attributable.
    #[must_use]
    pub fn total_retry_carbon(&self) -> GramsCo2e {
        self.total_retry_carbon
    }

    /// Everything the schedule offered over the horizon, reconstructed
    /// from the conserved buckets: served + declined + queue-dropped +
    /// low-priority shed + failed.
    #[must_use]
    pub fn offered_requests(&self) -> f64 {
        self.total_requests
            + self.declined_requests
            + self.dropped_requests
            + self.low_priority_shed_requests
            + self.failed_requests
    }

    /// Request availability over the horizon: the fraction of requests
    /// assigned to sites that did not fail (1.0 when nothing was
    /// assigned). Declines are capacity planning, not failures, so they
    /// do not count against availability.
    #[must_use]
    pub fn availability(&self) -> f64 {
        let assigned = self.total_requests
            + self.dropped_requests
            + self.low_priority_shed_requests
            + self.failed_requests;
        if assigned > 0.0 {
            1.0 - self.failed_requests / assigned
        } else {
            1.0
        }
    }

    /// The simulated horizon in seconds (window count times window
    /// duration).
    #[must_use]
    pub fn horizon_seconds(&self) -> f64 {
        self.horizon_seconds
    }

    /// The per-window serving health series (one entry per routing
    /// window; all-healthy on a fault-free run).
    #[must_use]
    pub fn window_health(&self) -> &[WindowHealth] {
        &self.window_health
    }

    /// Number of downtime windows: windows whose success rate fell
    /// strictly below `threshold` (e.g. `0.5` for majority-failed).
    #[must_use]
    pub fn downtime_windows(&self, threshold: f64) -> usize {
        self.window_health
            .iter()
            .filter(|h| h.success_rate() < threshold)
            .count()
    }

    /// Goodput: successfully served requests per second of horizon.
    #[must_use]
    pub fn goodput_qps(&self) -> f64 {
        if self.horizon_seconds > 0.0 {
            self.total_requests / self.horizon_seconds
        } else {
            0.0
        }
    }

    /// Requests served across the fleet and the horizon.
    #[must_use]
    pub fn total_requests(&self) -> f64 {
        self.total_requests
    }

    /// Lifetime operational carbon.
    #[must_use]
    pub fn total_operational(&self) -> GramsCo2e {
        self.total_operational
    }

    /// Lifetime embodied carbon.
    #[must_use]
    pub fn total_embodied(&self) -> GramsCo2e {
        self.total_embodied
    }

    /// Lifetime total carbon, the retry/hedge carbon included.
    #[must_use]
    pub fn total_carbon(&self) -> GramsCo2e {
        self.total_operational + self.total_embodied + self.total_retry_carbon
    }

    /// Lifetime-amortised grams of CO2e per served request, or `None` if
    /// nothing was served.
    #[must_use]
    pub fn grams_per_request(&self) -> Option<f64> {
        if self.total_requests > 0.0 {
            Some(self.total_carbon().grams() / self.total_requests)
        } else {
            None
        }
    }

    /// Cumulative (lifetime-amortised) grams per request through the end
    /// of day `day` (0-based), or `None` if nothing was served yet.
    #[must_use]
    pub fn grams_per_request_through_day(&self, day: usize) -> Option<f64> {
        let mut requests = 0.0;
        let mut carbon = 0.0;
        for ledger in &self.day_ledger[..=day.min(self.day_ledger.len() - 1)] {
            requests += ledger.requests();
            carbon += ledger.carbon().grams();
        }
        if requests > 0.0 {
            Some(carbon / requests)
        } else {
            None
        }
    }

    /// The Figure 7-style amortised trajectory: cumulative gCO2e/request
    /// through the end of each year, as `(years_elapsed, grams)` points.
    #[must_use]
    pub fn yearly_trajectory(&self) -> Vec<(f64, f64)> {
        let mut requests = 0.0;
        let mut carbon = 0.0;
        let mut points = Vec::with_capacity(self.years);
        for year in 0..self.years {
            for site in 0..self.site_names.len() {
                let cell = self.cell(year, site);
                requests += cell.requests();
                carbon += cell.carbon().grams();
            }
            if requests > 0.0 {
                points.push((count_f64(year + 1), carbon / requests));
            }
        }
        points
    }

    /// The first day whose cumulative amortised carbon per request is
    /// strictly below `other`'s, or `None` if it never crosses: the
    /// crossover day of a cloudlet-versus-datacenter comparison.
    #[must_use]
    pub fn first_day_cheaper_than(&self, other: &LifecycleResult) -> Option<usize> {
        let days = self.day_ledger.len().min(other.day_ledger.len());
        let (mut req_a, mut co2_a, mut req_b, mut co2_b) = (0.0, 0.0, 0.0, 0.0);
        for day in 0..days {
            req_a += self.day_ledger[day].requests();
            co2_a += self.day_ledger[day].carbon().grams();
            req_b += other.day_ledger[day].requests();
            co2_b += other.day_ledger[day].carbon().grams();
            if req_a > 0.0 && req_b > 0.0 && co2_a / req_a < co2_b / req_b {
                return Some(day);
            }
        }
        None
    }

    /// The worst measured median latency across every cell, ms — the
    /// planner's median-SLO hook.
    ///
    /// Slices are measured on the full-strength topology even on days
    /// when part of a cohort is down (only utilisation is rescaled by
    /// the alive fraction — see the module docs), so outage-day
    /// latencies are optimistic. Capacity-driven effects still register:
    /// routing re-plans against the alive capacity, and overload shows
    /// up as shed. This caveat applies to all three `worst_*` hooks.
    #[must_use]
    pub fn worst_median_ms(&self) -> f64 {
        self.cells
            .iter()
            .map(LifecycleCell::worst_median_ms)
            .fold(0.0, f64::max)
    }

    /// The worst measured tail (90th percentile) latency across every
    /// cell, ms — the planner's tail-SLO hook.
    #[must_use]
    pub fn worst_tail_ms(&self) -> f64 {
        self.cells
            .iter()
            .map(LifecycleCell::worst_tail_ms)
            .fold(0.0, f64::max)
    }

    /// The worst measured 99th-percentile latency across every cell, ms.
    #[must_use]
    pub fn worst_p99_ms(&self) -> f64 {
        self.cells
            .iter()
            .map(LifecycleCell::worst_p99_ms)
            .fold(0.0, f64::max)
    }

    /// Fraction of the offered demand lost anywhere — router-declined or
    /// queue-dropped — out of everything offered (0 when nothing was
    /// offered). The planner's shed-ceiling hook; under the default
    /// unbounded `ServerModel` it reduces to the router-declined fraction.
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        let offered = self.total_requests + self.shed_requests();
        if offered > 0.0 {
            self.shed_requests() / offered
        } else {
            0.0
        }
    }

    /// Battery packs replaced across the fleet and the horizon.
    #[must_use]
    pub fn total_battery_replacements(&self) -> u32 {
        self.cells
            .iter()
            .map(LifecycleCell::battery_replacements)
            .sum()
    }

    /// Device failures across the fleet and the horizon.
    #[must_use]
    pub fn total_device_failures(&self) -> u32 {
        self.cells.iter().map(LifecycleCell::device_failures).sum()
    }

    /// Failed slots refilled from junkyard stock across the horizon.
    #[must_use]
    pub fn total_devices_replaced(&self) -> u32 {
        self.cells.iter().map(LifecycleCell::devices_replaced).sum()
    }
}

/// What one microsim slice measured: the utilisation that prices the
/// window's energy, the latency percentiles the SLO hooks track, and the
/// fraction of accepted requests dropped at bounded queues.
#[derive(Debug, Clone, Copy)]
struct SliceMeasure {
    utilization: f64,
    median: Millis,
    tail: Millis,
    p99: Millis,
    drop_fraction: f64,
}

impl SliceMeasure {
    /// The measure of a slice nothing was delivered to: no simulation
    /// runs, so no utilisation, latency or drops.
    const IDLE: Self = Self {
        utilization: 0.0,
        median: Millis::from_millis(0.0),
        tail: Millis::from_millis(0.0),
        p99: Millis::from_millis(0.0),
        drop_fraction: 0.0,
    };
}

/// Runs one representative microsim slice of a window — `warmup` at the
/// start rate, then `slice` ramping from the start to the end rate — and
/// measures it over the ramp alone.
///
/// The warm-up and slice are whole seconds (the run config enforces it), so
/// the bucket range covers exactly the measured slice: no warm-up work
/// leaks in and no partial trailing one-second utilisation bucket
/// dilutes it.
fn measure_slice(
    sim: &CompiledSim,
    request_type: Option<&str>,
    warmup: TimeSpan,
    slice: TimeSpan,
    start: Qps,
    end: Qps,
    seed: u64,
) -> Result<SliceMeasure, SimError> {
    let warm = warmup.seconds();
    let slice = slice.seconds();
    let (qps_start, qps_end) = (start.per_second(), end.per_second());
    let mut phases = Vec::with_capacity(2);
    if warm > 0.0 {
        phases.push(Phase::new(qps_start, warm, request_type));
    }
    phases.push(Phase::ramp(qps_start, qps_end, slice, request_type));
    let metrics = sim.run(&Workload::phased(phases, seed))?;
    let stats = metrics.latency_stats_between(warm, warm + slice);
    let from_bucket = floor_index(warm);
    let to_bucket = floor_index(warm + slice);
    let nodes = metrics.node_utilization();
    let utilization = nodes
        .iter()
        .map(|u| u.mean_percent_between(from_bucket, to_bucket))
        .sum::<f64>()
        / count_f64(nodes.len())
        / 100.0;
    Ok(SliceMeasure {
        utilization,
        median: Millis::from_millis(stats.median_ms().unwrap_or(0.0)),
        tail: Millis::from_millis(stats.tail_ms().unwrap_or(0.0)),
        p99: Millis::from_millis(stats.p99_ms().unwrap_or(0.0)),
        // The slice's drop share extrapolates to the window the same way
        // latency and utilisation do (0.0 for zero-offered slices).
        drop_fraction: metrics.drop_fraction_between(warm, warm + slice),
    })
}

/// A site's compiled simulation and request-type restriction: what its
/// slices run on.
type ServingSim = (Arc<CompiledSim>, Option<String>);

/// The exact identity of one slice: the site simulation (an index into
/// [`MeasuredSlices`]' distinct simulations, request type included) and
/// the bit patterns of everything its workload is built from. Two slices
/// with equal keys replay the same events, so a slice is a pure function
/// of its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SliceKey {
    sim: usize,
    warmup_bits: u64,
    slice_bits: u64,
    start_bits: u64,
    end_bits: u64,
    seed: u64,
}

impl SliceKey {
    /// Simulates the slice on `sims[self.sim]`.
    fn measure(&self, sims: &[ServingSim]) -> Result<SliceMeasure, SimError> {
        let (sim, request_type) = &sims[self.sim];
        measure_slice(
            sim,
            request_type.as_deref(),
            TimeSpan::from_secs(f64::from_bits(self.warmup_bits)),
            TimeSpan::from_secs(f64::from_bits(self.slice_bits)),
            Qps::from_per_second(f64::from_bits(self.start_bits)),
            Qps::from_per_second(f64::from_bits(self.end_bits)),
            self.seed,
        )
    }
}

/// Microsim slices measured by lifecycle runs, kept for the runs after
/// them.
///
/// The caller owns the table and passes it to [`LifecycleSim::run_batch`]
/// with each batch of planned fleets. A batch looks up every slice its
/// members need, simulates the union of the missing ones once and adds
/// them. A slice is shared only on exact identity: an equal compiled
/// simulation and request type, and the same bit patterns of warm-up,
/// slice length, load endpoints and seed. So each member's result is
/// bit-identical to its standalone [`LifecycleSim::run`]. The table keeps
/// its own handle on each distinct simulation, and slices run on it. It
/// lives as long as the caller's value and no longer.
#[derive(Debug, Default)]
pub struct MeasuredSlices {
    /// Distinct site simulations with their request types; a
    /// [`SliceKey`] names one by position.
    sims: Vec<ServingSim>,
    /// Each measured slice's position in `measures`.
    index: BTreeMap<SliceKey, usize>,
    measures: Vec<SliceMeasure>,
}

impl MeasuredSlices {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct slices measured so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.measures.len()
    }

    /// `true` before any slice has been measured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.measures.is_empty()
    }

    /// The position of a site's simulation and request type among the
    /// table's distinct simulations, adding them when new. A handle the
    /// table already shares is found without comparing the simulations.
    fn sim_index(&mut self, (sim, request_type): &ServingSim) -> usize {
        let known = self.sims.iter().position(|(known, known_type)| {
            known_type == request_type && (Arc::ptr_eq(known, sim) || **known == **sim)
        });
        known.unwrap_or_else(|| {
            self.sims.push((Arc::clone(sim), request_type.clone()));
            self.sims.len() - 1
        })
    }
}

/// The load one window's measured slice replays at one site, or `None`
/// when nothing was delivered there and no slice is measured, from the
/// router's `(start, end)` rates for the site. The slice replays only the
/// traffic delivered on first attempt: the planned endpoints times the
/// delivered ratio, which is exactly 1.0 (so the bits stay untouched)
/// wherever the site took its whole share. Slice planning and cell
/// accounting both call this, so they agree on every slice.
fn slice_endpoints(
    (qps_start, qps_end): (f64, f64),
    resolution: &WindowResolution,
    site: usize,
) -> Option<(f64, f64)> {
    let ratio = resolution.delivered_ratio[site];
    let (eff_start, eff_end) = (qps_start * ratio, qps_end * ratio);
    ((eff_start + eff_end) / 2.0 > 0.0).then_some((eff_start, eff_end))
}

/// One (year, site) cell's distinct slice loads. `first` lists each
/// `(start, end)` bit pair with its workload seed, in the order of the
/// first window carrying it; `position` maps a pair to its place there.
#[derive(Debug, Default)]
struct CellLoads {
    position: BTreeMap<(u64, u64), usize>,
    first: Vec<((u64, u64), u64)>,
}

/// The runtime state of one cohort slot during the dynamics pass.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    battery: BatteryState,
    /// `Some(day)` while the slot is down: it refills at the start of
    /// `day`.
    down_until: Option<usize>,
}

/// A multi-year fleet lifecycle simulation.
#[derive(Debug, Clone)]
pub struct LifecycleSim {
    sites: Vec<LifecycleSite>,
    schedule: DiurnalSchedule,
    policy: RoutingPolicy,
    config: LifecycleConfig,
    faults: FaultConfig,
    resilience: ResiliencePolicy,
}

/// A lifecycle run after its planning passes and before its slices are
/// measured ([`LifecycleSim::plan`]): the router's inputs, the resolved
/// outcomes that differ from the healthy one, and each cell's distinct
/// slice loads. The inputs are the schedule, each site's grid region
/// (sharing the site's trace), the per-site daily dynamics and the fault
/// plan (no grid when nothing strikes), from which one function rebuilds
/// any window's routing, so no per-window row is kept. It holds no
/// cohort, and each site's simulation only as a shared handle, so a
/// batch ([`LifecycleSim::run_batch`]) keeps plans rather than fleets.
#[derive(Debug)]
pub struct LifecyclePlan {
    policy: RoutingPolicy,
    config: LifecycleConfig,
    site_names: Vec<String>,
    /// Each site's simulation, until the batch registers it in the table.
    serving: Vec<ServingSim>,
    /// The day curve the windows are cut from
    /// ([`DiurnalSchedule::window`]).
    schedule: DiurnalSchedule,
    /// Each site's grid region, whose window means the router reads.
    regions: Vec<GridRegion>,
    dynamics: Vec<Vec<DayDynamics>>,
    /// The correlated fault schedule: the true availability, and the
    /// router's view of it `lag` windows late.
    faults: FaultPlan,
    lag: usize,
    /// The standby site, observed at zero capacity so it takes no
    /// primary traffic.
    fallback: Option<usize>,
    /// The window outcomes that differ from the healthy one.
    resolutions: BTreeMap<usize, WindowResolution>,
    /// The network carbon of one retry attempt.
    retry_attempt: GramsCo2e,
    /// Year-major, like the result's cells.
    cell_loads: Vec<CellLoads>,
}

/// One window's routing as [`LifecyclePlan::route`] builds it, in buffers
/// reused from window to window: each site's window-mean intensity and
/// observed capacity, and the router's `(start, end)` split.
#[derive(Debug)]
struct RouteRow {
    intensities: Vec<CarbonIntensity>,
    observed_cap: Vec<f64>,
    shares: Vec<(f64, f64)>,
}

impl RouteRow {
    fn new(sites: usize) -> Self {
        Self {
            intensities: Vec::with_capacity(sites),
            observed_cap: vec![0.0; sites],
            shares: vec![(0.0, 0.0); sites],
        }
    }
}

impl LifecycleSim {
    /// Assembles a lifecycle run. `schedule`'s day curve repeats over the
    /// config's horizon. Faults start disabled and the resilience policy
    /// at [`ResiliencePolicy::new`].
    ///
    /// # Panics
    ///
    /// Panics if there are no sites.
    #[must_use]
    pub fn new(
        sites: Vec<LifecycleSite>,
        schedule: DiurnalSchedule,
        policy: RoutingPolicy,
        config: LifecycleConfig,
    ) -> Self {
        assert!(!sites.is_empty(), "a lifecycle needs at least one site");
        Self {
            sites,
            schedule,
            policy,
            config,
            faults: FaultConfig::disabled(),
            resilience: ResiliencePolicy::new(),
        }
    }

    /// Injects a correlated fault schedule: a deterministic
    /// [`FaultPlan`] of grid outages, firmware-batch failures and
    /// thermal shutdowns is generated from `config` (seeded from the run
    /// seed) and applied on top of the per-device daily dynamics. A
    /// disabled config, the default, injects nothing.
    #[must_use]
    pub fn with_faults(mut self, config: FaultConfig) -> Self {
        self.faults = config;
        self
    }

    /// Installs the failure-aware serving policy: health-view detection
    /// lag, client retries/hedging and the operator degradation ladder.
    /// Without faults and without a standby fallback site this changes
    /// nothing — results stay bit-identical to the plain run.
    ///
    /// # Panics
    ///
    /// Panics if the policy names a fallback site index out of range.
    #[must_use]
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        if let Some(site) = policy.fallback() {
            assert!(
                site < self.sites.len(),
                "fallback site index {site} out of range ({} sites)",
                self.sites.len()
            );
        }
        self.resilience = policy;
        self
    }

    /// The dynamics pass for one site: day-stepped battery wear under the
    /// smart-charging schedule, pack replacements, stochastic failures
    /// and junkyard refills. It reads only the site's own seeded draws,
    /// so the days it returns are the same on any thread.
    fn simulate_dynamics(&self, site_index: usize, days: usize) -> Vec<DayDynamics> {
        match &self.sites[site_index].backend {
            Backend::Leased(site) => {
                let daily_embodied = site.embodied_over(TimeSpan::from_days(1.0));
                (0..days)
                    .map(|_| DayDynamics {
                        capacity_qps: site.capacity_qps(),
                        idle_power: site.idle_power(),
                        dynamic_power: site.dynamic_power(),
                        overhead_power: Watts::ZERO,
                        utilization_scale: 1.0,
                        operational_scale: site.operational_scale_factor(),
                        embodied: daily_embodied,
                        battery_replacements: 0,
                        device_failures: 0,
                        devices_replaced: 0,
                    })
                    .collect()
            }
            Backend::Cohort(Cohort {
                region,
                devices,
                install_embodied,
                overhead_power,
                policy,
                mean_days_between_failures,
                replacement_lag_days,
                ..
            }) => {
                let trace = region.trace();
                let trace_days = trace.day_count();
                // Horizon day `d` reads trace day `d % trace_days` and the
                // day before it, so a horizon shorter than the trace needs
                // only the days it reaches.
                let day_traces: Vec<IntensityTrace> = (0..days.min(trace_days))
                    .filter_map(|d| trace.day(d))
                    .collect();
                let day_stats: Vec<DayStats> =
                    day_traces.iter().map(DayStats::from_trace).collect();

                let site_seed = decorrelate_seed(self.config.seed, index_u64(site_index) + 1);
                let daily_hazard = if *mean_days_between_failures > 0.0 {
                    1.0 - (-1.0 / mean_days_between_failures).exp()
                } else {
                    0.0
                };

                let mut slots: Vec<SlotState> = devices
                    .iter()
                    .map(|d| SlotState {
                        battery: BatteryState::new_full(d.battery),
                        down_until: None,
                    })
                    .collect();
                let mut dynamics = Vec::with_capacity(days);

                for day in 0..days {
                    let mut embodied_today = GramsCo2e::ZERO;
                    let mut devices_replaced = 0;
                    if day == 0 {
                        embodied_today += *install_embodied;
                    }
                    // Junkyard refills due today: a fresh donor device with
                    // its own (free) pack fills the slot.
                    for (slot, device) in slots.iter_mut().zip(devices) {
                        if slot.down_until == Some(day) {
                            slot.battery = BatteryState::new_full(device.battery);
                            slot.down_until = None;
                            devices_replaced += 1;
                            embodied_today += device.replacement_embodied();
                        }
                    }

                    let mut alive = 0;
                    let mut capacity = 0.0;
                    let mut idle = Watts::ZERO;
                    let mut dynamic = Watts::ZERO;
                    let mut baseline = GramsCo2e::ZERO;
                    let mut smart = GramsCo2e::ZERO;
                    let mut battery_replacements = 0;
                    let day_trace = &day_traces[day % trace_days];
                    let previous = if day == 0 {
                        None
                    } else {
                        Some(&day_stats[(day + trace_days - 1) % trace_days])
                    };
                    for (slot, device) in slots.iter_mut().zip(devices) {
                        if slot.down_until.is_some() {
                            continue;
                        }
                        alive += 1;
                        capacity += device.capacity_qps();
                        idle += device.idle_power;
                        dynamic += device.dynamic_power;
                        let run = simulate_day(
                            *policy,
                            device.serving_power,
                            &mut slot.battery,
                            day_trace,
                            previous,
                            None,
                        );
                        baseline += run.baseline_carbon();
                        smart += run.smart_carbon();
                        battery_replacements += run.packs_replaced();
                        embodied_today +=
                            device.battery.embodied() * f64::from(run.packs_replaced());
                    }

                    // Failures strike at the end of the day; the slot is
                    // down for `lag` whole days starting tomorrow.
                    let mut device_failures = 0;
                    if daily_hazard > 0.0 {
                        for (index, slot) in slots.iter_mut().enumerate() {
                            if slot.down_until.is_some() {
                                continue;
                            }
                            let draw = decorrelate_seed(
                                site_seed,
                                index_u64(day * devices.len() + index) + 1,
                            );
                            let unit = unit_draw(draw);
                            if unit < daily_hazard {
                                slot.down_until = Some(day + 1 + replacement_lag_days);
                                device_failures += 1;
                            }
                        }
                    }

                    dynamics.push(DayDynamics {
                        capacity_qps: capacity,
                        idle_power: idle,
                        dynamic_power: dynamic,
                        overhead_power: *overhead_power,
                        utilization_scale: if alive > 0 {
                            counts_ratio(devices.len(), alive)
                        } else {
                            1.0
                        },
                        operational_scale: if baseline.grams() > 0.0 {
                            smart.grams() / baseline.grams()
                        } else {
                            1.0
                        },
                        embodied: embodied_today,
                        battery_replacements,
                        device_failures,
                        devices_replaced,
                    });
                }
                dynamics
            }
        }
    }

    /// Plans the run: the passes that decide what to measure. They are
    /// the per-site daily dynamics, one site per worker (capped at
    /// [`LifecycleConfig::parallelism`]), then one serial walk over the
    /// windows that routes and resolves each and adds its slice loads to
    /// their (year, site) cells. Within a cell a slice takes its seed
    /// from the first window with its `(start, end)` load pair. The plan
    /// is a pure function of the fleet, so fleets can be planned on any
    /// thread and dropped once planned; [`LifecycleSim::run_batch`]
    /// measures and accounts the plans.
    #[must_use]
    pub fn plan(&self) -> LifecyclePlan {
        self.plan_with(&mut NoopRecorder)
    }

    /// [`LifecycleSim::plan`], recording each window's routing decisions
    /// and its fault, retry, hedge and degradation transitions.
    fn plan_with<R: Recorder>(&self, recorder: &mut R) -> LifecyclePlan {
        let days = self.config.days;
        let wpd = self.config.windows_per_day;
        let sites = self.sites.len();
        let windows = days * wpd;

        // Pass 1: per-site daily dynamics, one site per worker (on the
        // caller's thread when the plan is itself a fan-out's job). A
        // lost worker's sites are redone here.
        let site_dynamics = |s| self.simulate_dynamics(s, days);
        let dynamics: Vec<Vec<DayDynamics>> = fan_out(
            0..sites,
            fanout::workers(self.config.parallelism, sites),
            |_, s| site_dynamics(s),
        )
        .unwrap_or_else(|_| (0..sites).map(site_dynamics).collect());

        let mut plan = LifecyclePlan {
            policy: self.policy,
            config: self.config,
            site_names: self.sites.iter().map(|s| s.name().to_owned()).collect(),
            serving: self
                .sites
                .iter()
                .map(|site| {
                    let (sim, request_type) = site.serving();
                    (Arc::clone(sim), request_type.map(str::to_owned))
                })
                .collect(),
            schedule: self.schedule.clone(),
            regions: self.sites.iter().map(|s| s.region().clone()).collect(),
            dynamics,
            faults: FaultPlan::generate(
                &self.faults,
                windows,
                sites,
                wpd,
                decorrelate_seed(self.config.seed, 1 << 32),
            ),
            lag: self.resilience.lag_windows(),
            fallback: self.resilience.fallback(),
            resolutions: BTreeMap::new(),
            retry_attempt: GramsCo2e::new(
                self.resilience
                    .retry_policy()
                    .map_or(0.0, RetryPolicy::attempt_grams),
            ),
            cell_loads: (0..days.div_ceil(DAYS_PER_YEAR) * sites)
                .map(|_| CellLoads::default())
                .collect(),
        };

        // Pass 2, one walk over the windows. Each is routed
        // (`LifecyclePlan::route`) and then resolved: first attempts
        // against *true* capacity, the retry rounds aimed by the stale
        // view, the hedge and the degradation ladder. Only the outcomes
        // that differ from the healthy one are kept, so a fault-free run
        // stores none. Each site's slice load goes to its (year, site)
        // cell, seeded from the first window carrying it.
        let healthy = WindowResolution::healthy(sites);
        let mut row = RouteRow::new(sites);
        let (mut true_cap, mut avail, mut assigned) =
            (vec![0.0; sites], vec![0.0; sites], vec![0.0; sites]);
        for w in 0..windows {
            let (window, declined) = plan.route(w, &mut row);
            record_routes(
                recorder,
                &window,
                &row.shares,
                declined,
                self.sites.iter().map(LifecycleSite::name),
            );
            let day = w / wpd;
            for s in 0..sites {
                avail[s] = plan.faults.availability(w, s);
                true_cap[s] = plan.dynamics[s][day].capacity_qps * avail[s];
            }
            for (rate, (start, end)) in assigned.iter_mut().zip(&row.shares) {
                *rate = (start + end) / 2.0;
            }
            let resolution = resolve_window(
                &assigned,
                &true_cap,
                &row.observed_cap,
                &avail,
                &self.resilience,
            );
            let year_cells = &mut plan.cell_loads[day / DAYS_PER_YEAR * sites..][..sites];
            for (site, loads) in year_cells.iter_mut().enumerate() {
                let Some((qps_start, qps_end)) =
                    slice_endpoints(row.shares[site], &resolution, site)
                else {
                    continue;
                };
                let load = (qps_start.to_bits(), qps_end.to_bits());
                if let Entry::Vacant(slot) = loads.position.entry(load) {
                    slot.insert(loads.first.len());
                    let seed = decorrelate_seed(self.config.seed, index_u64(w * sites + site) + 1);
                    loads.first.push((load, seed));
                }
            }
            if resolution != healthy {
                plan.resolutions.insert(w, resolution);
            }
        }
        if recorder.enabled() {
            // A window with a fault differs from the healthy outcome in
            // its availability, so the stored outcomes hold every event.
            for (&w, r) in &plan.resolutions {
                let t = self.schedule.window(w, wpd).start().seconds();
                for (s, site) in self.sites.iter().enumerate() {
                    if r.avail[s] < 1.0 {
                        recorder.event(
                            TraceEvent::new(EventKind::Fault, t, site.name(), r.avail[s])
                                .with_detail(&format!("w{w}")),
                        );
                    }
                }
                if r.retried_ok_mean > 0.0 {
                    recorder.event(
                        TraceEvent::new(EventKind::Retry, t, "retried-ok", r.retried_ok_mean)
                            .with_detail(&format!("w{w}")),
                    );
                }
                if r.hedged_mean > 0.0 {
                    recorder.event(
                        TraceEvent::new(EventKind::Hedge, t, "hedged", r.hedged_mean)
                            .with_detail(&format!("w{w}")),
                    );
                }
                if r.rerouted_mean > 0.0 {
                    recorder.event(
                        TraceEvent::new(EventKind::Route, t, "rerouted", r.rerouted_mean)
                            .with_detail(&format!("w{w} reroute")),
                    );
                }
                let degraded = r.brownout_mean + r.lp_shed_mean;
                if degraded > 0.0 {
                    recorder.event(
                        TraceEvent::new(EventKind::Degrade, t, "degraded", degraded).with_detail(
                            &format!(
                                "w{w} brownout={} lp-shed={}",
                                r.brownout_mean, r.lp_shed_mean
                            ),
                        ),
                    );
                }
            }
        }
        plan
    }

    /// Runs the lifecycle and returns the accounting grid: a batch of one
    /// ([`LifecycleSim::run_batch`]) against a fresh slice table, so
    /// nothing is kept between calls.
    ///
    /// The planning passes ([`LifecycleSim::plan`]) run first. The distinct
    /// slices then fan out across worker threads with [`fan_out`], and a
    /// serial pass accounts every (year, site) cell from them, so the
    /// result is bit-identical at any worker count.
    ///
    /// # Errors
    ///
    /// Propagates microsim errors; with multiple failures the first
    /// failing slice in (cell, window) order wins, which is the
    /// lowest-index cell's error.
    pub fn run(&self) -> Result<LifecycleResult, SimError> {
        // Path-qualified: the lint's call graph resolves `.run_with(` by
        // name, which would reach `SweepConfig::run_with` from fan-outs.
        LifecycleSim::run_with(self, &mut NoopRecorder)
    }

    /// [`LifecycleSim::run`] with lifecycle tracing: per-(window, site)
    /// routing decisions, fault/retry/hedge/degradation transitions,
    /// and the conservation ledger (per-window request identity,
    /// per-day carbon identity) are recorded into `recorder`.
    ///
    /// Every hook fires on the **serial driver side**, from state the
    /// plain run already computes — workers never touch the recorder,
    /// and the returned [`LifecycleResult`] is bit-identical to
    /// [`LifecycleSim::run`] for any recorder. Like `run`, it starts
    /// from a fresh slice table.
    ///
    /// # Errors
    ///
    /// Propagates microsim errors as [`LifecycleSim::run`] does. A
    /// violated conservation identity is not an error here — it is
    /// recorded as a `ledger` event with `"violation"` as its key, so the
    /// trace stays a faithful witness.
    pub fn run_with<R: Recorder>(&self, recorder: &mut R) -> Result<LifecycleResult, SimError> {
        let plan = self.plan_with(recorder);
        run_plans(vec![plan], &mut MeasuredSlices::new(), recorder)
            .pop()
            .unwrap_or(Err(SimError::WorkerLost))
    }

    /// Measures and accounts a batch of planned fleets against a
    /// caller-owned slice table, and returns their results in input
    /// order, each bit-identical to that fleet's own [`LifecycleSim::run`].
    ///
    /// Each member's slices are looked up in `slices` serially, member by
    /// member. The union of the ones the table lacks runs as one
    /// [`fan_out`] on the table's own handle of each distinct simulation,
    /// over [`fanout::workers`]`(cap, new slices)`, where `cap` is the
    /// smallest [`LifecycleConfig::parallelism`] any member sets (none
    /// set: the machine's available parallelism). Each member is then
    /// accounted in input order. Fleets over the same sites (the
    /// resilience study's strategies) or the same candidate at a longer
    /// horizon (the planner's rungs) thus simulate each shared slice once.
    ///
    /// # Errors
    ///
    /// A member whose slices fail gets the error of its first failing
    /// slice in (cell, window) order, exactly as its own run would; the
    /// other members still get their results. A batch with any failing
    /// slice adds nothing to the table.
    pub fn run_batch(
        plans: impl IntoIterator<Item = LifecyclePlan>,
        slices: &mut MeasuredSlices,
    ) -> Vec<Result<LifecycleResult, SimError>> {
        run_plans(plans.into_iter().collect(), slices, &mut NoopRecorder)
    }
}

/// The one lifecycle batch body behind `run`, `run_with` and
/// `run_batch`: assigns every member's slices against `slices`, measures
/// the missing union in one fan-out, then accounts each member in input
/// order, its ledger events into `recorder`.
fn run_plans<R: Recorder>(
    mut plans: Vec<LifecyclePlan>,
    slices: &mut MeasuredSlices,
    recorder: &mut R,
) -> Vec<Result<LifecycleResult, SimError>> {
    let (sims_before, base) = (slices.sims.len(), slices.len());
    // Serial: each member's slices become table positions, per cell in
    // first-window order. Slices neither the table nor an earlier member
    // holds become new jobs; the member's own simulation handles go, and
    // its slices run on the table's.
    let mut new_keys: BTreeMap<SliceKey, usize> = BTreeMap::new();
    let mut jobs: Vec<SliceKey> = Vec::new();
    let mut positions: Vec<Vec<Vec<usize>>> = Vec::with_capacity(plans.len());
    for plan in &mut plans {
        let sims: Vec<usize> = mem::take(&mut plan.serving)
            .iter()
            .map(|serving| slices.sim_index(serving))
            .collect();
        let sites = sims.len();
        let (warmup_bits, slice_bits) = (
            plan.config.warmup.seconds().to_bits(),
            plan.config.slice.seconds().to_bits(),
        );
        let member = plan.cell_loads.iter().enumerate().map(|(cell, loads)| {
            let sim = sims[cell % sites];
            let cell_positions = loads.first.iter().map(|&((start_bits, end_bits), seed)| {
                let key = SliceKey {
                    sim,
                    warmup_bits,
                    slice_bits,
                    start_bits,
                    end_bits,
                    seed,
                };
                match slices.index.get(&key) {
                    Some(&known) => known,
                    None => *new_keys.entry(key).or_insert_with(|| {
                        jobs.push(key);
                        base + jobs.len() - 1
                    }),
                }
            });
            cell_positions.collect()
        });
        positions.push(member.collect());
    }

    // Parallel: the new slices, claimed one at a time so slices of
    // unequal cost spread evenly over the workers.
    let cap = plans
        .iter()
        .filter_map(|plan| plan.config.parallelism)
        .min();
    let sims = &slices.sims;
    let measured = fan_out(&jobs, fanout::workers(cap, jobs.len()), |_, key| {
        key.measure(sims)
    })
    .unwrap_or_else(|lost| vec![Err(lost); jobs.len()]);

    // Serial: account each member whose slices all measured. Failed
    // slices take an idle placeholder that no accounted member reads.
    let failed = measured.iter().any(Result::is_err);
    slices.measures.extend(
        measured
            .iter()
            .map(|measure| measure.as_ref().map_or(SliceMeasure::IDLE, |m| *m)),
    );
    let results = plans
        .iter()
        .zip(&positions)
        .map(|(plan, member)| {
            let first_failure = member
                .iter()
                .flatten()
                .filter_map(|&position| position.checked_sub(base))
                .find_map(|job| measured[job].as_ref().err());
            match first_failure {
                Some(error) => Err(error.clone()),
                None => Ok(plan.account(member, &slices.measures, recorder)),
            }
        })
        .collect();
    if failed {
        slices.measures.truncate(base);
        slices.sims.truncate(sims_before);
    } else {
        slices.index.append(&mut new_keys);
    }
    results
}

impl LifecyclePlan {
    /// Routes window `w` into `row`: each site's window-mean intensity,
    /// the capacity the router believes is alive that day (true capacity
    /// times the availability observed `lag` windows ago, all of it before
    /// anything could be observed; a standby fallback site is observed at
    /// zero), then the router's split. Returns the window and the rate
    /// the router declined. The plan pass and the accounting pass both
    /// route through here, so they see the same bits.
    fn route(&self, w: usize, row: &mut RouteRow) -> (LoadWindow, f64) {
        let wpd = self.config.windows_per_day;
        let window = self.schedule.window(w, wpd);
        let day = w / wpd;
        row.intensities.clear();
        row.intensities.extend(
            self.regions
                .iter()
                .map(|region| region.mean_intensity_between(window.start(), window.end())),
        );
        for (s, observed_cap) in row.observed_cap.iter_mut().enumerate() {
            let observed_avail = if w >= self.lag {
                self.faults.availability(w - self.lag, s)
            } else {
                1.0
            };
            *observed_cap = if Some(s) == self.fallback {
                0.0
            } else {
                self.dynamics[s][day].capacity_qps * observed_avail
            };
        }
        let declined = plan_window(
            self.policy,
            &row.observed_cap,
            &row.intensities,
            &window,
            &mut row.shares,
        );
        (window, declined)
    }

    /// Accounts the planned run from the measured slices: every (year,
    /// site) cell, the fleet-wide day ledger, the availability roll-ups
    /// and, into `recorder`, the conservation ledger. `positions` holds
    /// each cell's slices as positions in `measures`, in the order of
    /// [`CellLoads::first`].
    ///
    /// One walk over the windows, in the plan pass's order, routes each
    /// window again and prices every site's share into its (year, site)
    /// cell and the site's day. Each day then goes to its cell and, in
    /// site order, to the fleet's day ledger. A cell takes its windows
    /// and days in order, and the ledger its sites, so every sum is
    /// taken in window, day and site order.
    fn account<R: Recorder>(
        &self,
        positions: &[Vec<usize>],
        measures: &[SliceMeasure],
        recorder: &mut R,
    ) -> LifecycleResult {
        let days = self.config.days;
        let wpd = self.config.windows_per_day;
        let sites = self.site_names.len();
        let windows = days * wpd;
        let duration = self.schedule.window(0, wpd).duration();
        let window_s = duration.seconds();
        let healthy = WindowResolution::healthy(sites);

        let mut row = RouteRow::new(sites);
        let mut cells = vec![LifecycleCell::default(); self.cell_loads.len()];
        let mut day_ledger = Vec::with_capacity(days);
        let mut site_days = vec![DayLedger::default(); sites];
        // Availability accounting: the resolved outcomes rolled up into
        // horizon totals and the per-window health series. The live
        // conservation ledger re-checks every window's request identity
        // and every day's carbon identity at record time; a violation
        // becomes a `ledger` event keyed `"violation"`, so the trace
        // witnesses the leak instead of silently absorbing it.
        let mut declined_requests = 0.0;
        let mut failed_requests = 0.0;
        let mut retried_ok_requests = 0.0;
        let mut hedged_requests = 0.0;
        let mut rerouted_requests = 0.0;
        let mut brownout_requests = 0.0;
        let mut low_priority_shed_requests = 0.0;
        let mut window_health = Vec::with_capacity(windows);
        let mut ledger = ConservedLedger::new();
        for day in 0..days {
            let first_cell = day / DAYS_PER_YEAR * sites;
            site_days.fill(DayLedger::default());
            for w in day * wpd..(day + 1) * wpd {
                let (window, declined_qps) = self.route(w, &mut row);
                let r = self.resolutions.get(&w).unwrap_or(&healthy);
                for (site, site_day) in site_days.iter_mut().enumerate() {
                    let cell = first_cell + site;
                    let measure =
                        |load| measures[positions[cell][self.cell_loads[cell].position[&load]]];
                    self.price_window(
                        (site, day),
                        &row,
                        r,
                        duration,
                        measure,
                        (&mut cells[cell], site_day),
                    );
                }

                let offered: f64 = row
                    .shares
                    .iter()
                    .map(|(start, end)| (start + end) / 2.0)
                    .sum::<f64>()
                    * window_s;
                let declined = declined_qps * window_s;
                let failed = r.failed_mean * window_s;
                let lp_shed = r.lp_shed_mean * window_s;
                declined_requests += declined;
                failed_requests += failed;
                retried_ok_requests += r.retried_ok_mean * window_s;
                hedged_requests += r.hedged_mean * window_s;
                rerouted_requests += r.rerouted_mean * window_s;
                brownout_requests += r.brownout_mean * window_s;
                low_priority_shed_requests += lp_shed;
                let health = WindowHealth {
                    offered,
                    served: offered - failed - lp_shed,
                    failed,
                };
                if recorder.enabled() {
                    let shed = health.offered - health.served - health.failed;
                    if let Err(err) = ledger.record_requests(
                        health.offered + declined,
                        health.served,
                        declined,
                        0.0,
                        shed,
                        health.failed,
                    ) {
                        recorder.event(
                            TraceEvent::new(
                                EventKind::Ledger,
                                window.start().seconds(),
                                "violation",
                                health.offered,
                            )
                            .with_detail(&err.to_string()),
                        );
                    }
                }
                window_health.push(health);
            }
            let mut entry = DayLedger::default();
            for (site, site_day) in site_days.iter_mut().enumerate() {
                let state = &self.dynamics[site][day];
                site_day.embodied = state.embodied;
                cells[first_cell + site].add_day(site_day, state);
                entry.add(site_day);
            }
            day_ledger.push(entry);
        }

        let mut total_requests = 0.0;
        let mut dropped_requests = 0.0;
        let mut total_operational = GramsCo2e::ZERO;
        let mut total_embodied = GramsCo2e::ZERO;
        let mut total_retry_carbon = GramsCo2e::ZERO;
        for cell in &cells {
            total_requests += cell.requests;
            dropped_requests += cell.dropped_requests;
            total_operational += cell.operational;
            total_embodied += cell.embodied;
            total_retry_carbon += cell.retry_carbon;
        }

        if recorder.enabled() {
            for (day, entry) in day_ledger.iter().enumerate() {
                let operational = entry.operational.grams();
                let embodied = entry.embodied.grams();
                let retry = entry.retry.grams();
                let total = operational + embodied + retry;
                let t = count_f64(day) * 24.0 * 3600.0;
                if let Err(err) = ledger.record_carbon(total, operational, embodied, retry) {
                    recorder.event(
                        TraceEvent::new(EventKind::Ledger, t, "violation", total)
                            .with_detail(&err.to_string()),
                    );
                }
            }
            recorder.event(ledger.snapshot(count_f64(windows) * window_s));
        }

        LifecycleResult {
            policy: self.policy,
            site_names: self.site_names.clone(),
            years: days.div_ceil(DAYS_PER_YEAR),
            cells,
            day_ledger,
            declined_requests,
            dropped_requests,
            total_requests,
            total_operational,
            total_embodied,
            failed_requests,
            retried_ok_requests,
            hedged_requests,
            rerouted_requests,
            brownout_requests,
            low_priority_shed_requests,
            total_retry_carbon,
            window_health,
            horizon_seconds: count_f64(windows) * window_s,
        }
    }

    /// Prices site `site`'s share of window `row` on `day`, `duration`
    /// long, resolved as `r`: its served requests and its operational and
    /// retry carbon go to the site's `site_day`, its queue drops and its
    /// slice's latencies to its `cell`. `measure` looks the cell's slice
    /// up by its load bits.
    fn price_window(
        &self,
        (site, day): (usize, usize),
        row: &RouteRow,
        r: &WindowResolution,
        duration: TimeSpan,
        measure: impl Fn((u64, u64)) -> SliceMeasure,
        (cell, site_day): (&mut LifecycleCell, &mut DayLedger),
    ) {
        let state = &self.dynamics[site][day];
        let window_s = duration.seconds();
        let share = row.shares[site];
        let mean_qps = (share.0 + share.1) / 2.0;
        // The window's resolved outcome at this site: delivered
        // first-attempt ratio, true availability, and the
        // retry/hedge/degradation traffic landed here. A healthy window's
        // ratio and availability of exactly 1.0 change no bit below
        // (`x * 1.0 == x` for these finite quantities), and its zero
        // extras skip the retry terms.
        let (ratio, avail, extra_mean, attempt_mean) = (
            r.delivered_ratio[site],
            r.avail[site],
            r.extra_served_mean[site],
            r.retry_attempt_mean[site],
        );
        let (measured, utilization) = match slice_endpoints(share, r, site) {
            Some((eff_start, eff_end)) => {
                let measured = measure((eff_start.to_bits(), eff_end.to_bits()));
                // The alive *and available* devices do all the work: the
                // independent-failure scale is further inflated by the
                // fault availability (strictly positive here, or nothing
                // would have been delivered to measure).
                let scaled = measured.utilization * (state.utilization_scale / avail);
                (measured, scaled.min(1.0))
            }
            None => (SliceMeasure::IDLE, 0.0),
        };
        let drop_fraction = measured.drop_fraction;
        cell.observe(&measured);
        // Battery-backed device energy earns the smart-charging scale;
        // the overhead draw (fan, switch) has no battery to time-shift it
        // and is billed at face value. During a fault, only the surviving
        // fraction of devices draws power; a fully dark site loses its
        // overhead draw too.
        let idle_effective = state.idle_power * avail;
        let dynamic_effective = state.dynamic_power * avail;
        let device_energy = (idle_effective + dynamic_effective * utilization) * duration;
        let overhead_energy = state.overhead_power * duration;
        let intensity = row.intensities[site];
        let op = intensity.emissions_for(device_energy) * state.operational_scale
            + if avail > 0.0 {
                intensity.emissions_for(overhead_energy)
            } else {
                GramsCo2e::ZERO
            };
        site_day.operational += op;
        // The day ledger and cell totals count *served* requests; the
        // queue-dropped share is accumulated separately. Only the
        // delivered first-attempt share passes through the site's queues;
        // retry/degradation traffic landed here is added on top (its
        // queueing is folded into the marginal retry-carbon charge below).
        let delivered = mean_qps * window_s * ratio;
        site_day.requests += delivered * (1.0 - drop_fraction);
        cell.dropped_requests += delivered * drop_fraction;
        if extra_mean > 0.0 {
            site_day.requests += extra_mean * window_s;
        }
        // Every retry/hedge attempt aimed here is charged its network
        // carbon whether it landed or not; the extras that did land are
        // charged the marginal compute of the surviving devices serving
        // them.
        if attempt_mean > 0.0 || extra_mean > 0.0 {
            let network = GramsCo2e::new(attempt_mean * window_s * self.retry_attempt.grams());
            let available_capacity = state.capacity_qps * avail;
            let extra_util = if available_capacity > 0.0 {
                (extra_mean / available_capacity).min(1.0)
            } else {
                0.0
            };
            let marginal = dynamic_effective * extra_util * duration;
            site_day.retry += network + intensity.emissions_for(marginal) * state.operational_scale;
        }
    }
}

#[cfg(test)]
impl LifecyclePlan {
    /// The bytes the plan's vectors and maps hold: each vector's
    /// capacity times its element size, each map's entries times its
    /// entry size, nested ones included. A handle shared with the fleet
    /// (a simulation or a grid trace) counts only its own size.
    fn retained_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * mem::size_of::<T>()
        }
        let names =
            bytes(&self.site_names) + self.site_names.iter().map(String::capacity).sum::<usize>();
        let regions = bytes(&self.regions)
            + self
                .regions
                .iter()
                .map(|region| region.name().len())
                .sum::<usize>();
        let dynamics = bytes(&self.dynamics) + self.dynamics.iter().map(bytes).sum::<usize>();
        let resolutions: usize = self
            .resolutions
            .values()
            .map(|r| {
                mem::size_of::<(usize, WindowResolution)>()
                    + bytes(&r.avail)
                    + bytes(&r.delivered_ratio)
                    + bytes(&r.extra_served_mean)
                    + bytes(&r.retry_attempt_mean)
            })
            .sum();
        let cell_loads = bytes(&self.cell_loads)
            + self
                .cell_loads
                .iter()
                .map(|loads| {
                    loads.position.len() * mem::size_of::<((u64, u64), usize)>()
                        + bytes(&loads.first)
                })
                .sum::<usize>();
        names
            + bytes(&self.serving)
            + regions
            + dynamics
            + self.faults.grid_bytes()
            + resolutions
            + cell_loads
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::faults::DegradationLadder;
    use crate::testutil::{flat_region, tiny_sim};
    use junkyard_devices::catalog::{self, C5Size};
    use junkyard_grid::synth::CaisoSynthesizer;

    fn phone_slot(capacity: f64) -> CohortDevice {
        CohortDevice::new(
            Watts::new(1.7),
            BatterySpec::pixel_3a(),
            GramsCo2e::from_kilograms(5.5),
            capacity,
        )
        .power(Watts::new(0.8), Watts::new(1.7))
    }

    fn diurnal_region(seed: u64) -> GridRegion {
        GridRegion::new(
            "caiso",
            CaisoSynthesizer::new(seed, 3)
                .step(TimeSpan::from_minutes(30.0))
                .intensity_trace(),
        )
    }

    fn cohort_site(seed: u64, devices: usize) -> LifecycleSite {
        LifecycleSite::try_cohort(
            "cloudlet",
            &tiny_sim(),
            diurnal_region(seed),
            (0..devices).map(|_| phone_slot(300.0)).collect(),
            GramsCo2e::from_kilograms(20.0),
        )
        .expect("the test cohort is valid")
        .overhead_power(Watts::new(4.0))
        .failures(400.0, 5)
        .unwrap()
    }

    fn datacenter(capacity: f64) -> FleetSite {
        FleetSite::new("datacenter", &tiny_sim(), flat_region(420.0), capacity)
            .power(Watts::new(120.0), Watts::new(90.0))
            .embodied(
                GramsCo2e::from_kilograms(1_344.0),
                TimeSpan::from_years(4.0),
            )
    }

    fn leased_site(capacity: f64) -> LifecycleSite {
        LifecycleSite::try_leased(datacenter(capacity)).expect("the test capacity is valid")
    }

    fn quick(config: LifecycleConfig) -> LifecycleConfig {
        config.windows_per_day(2).sim_slice_s(1.0).warmup_s(0.0)
    }

    #[test]
    fn a_catalog_phone_fills_its_cohort_slot_and_a_server_is_refused() {
        let pixel = catalog::pixel_3a();
        let reuse = pixel
            .components()
            .unwrap()
            .reuse_factor(&ComponentBreakdown::compute_node_role());
        let curve = pixel.power();
        let expected = CohortDevice::new(
            pixel.average_power(&LoadProfile::light_medium()),
            pixel.battery().unwrap(),
            second_life_embodied(pixel.embodied(), &reuse),
            150.0,
        )
        .power(curve.idle(), curve.at_full_load() - curve.idle());
        assert_eq!(CohortDevice::from_catalog(&pixel, 150.0), Ok(expected));

        let server = catalog::c5_instance(C5Size::XLarge9);
        let error = CohortDevice::from_catalog(&server, 150.0).unwrap_err();
        assert!(error.to_string().contains(server.name()), "{error}");
    }

    #[test]
    fn lifecycle_accrues_wear_failures_and_embodied_events() {
        let sim = LifecycleSim::new(
            vec![cohort_site(9, 4), leased_site(800.0)],
            DiurnalSchedule::office_day(500.0),
            RoutingPolicy::CarbonAware,
            quick(LifecycleConfig::years(3)),
        );
        let result = sim.run().unwrap();
        assert_eq!(result.cells().len(), 6);
        assert_eq!(result.day_ledger().len(), 3 * DAYS_PER_YEAR);
        assert!(result.total_requests() > 0.0);
        // Pixel packs at ~1.7 W wear out in ~2.1 years: three years of
        // service must replace batteries, driven by simulated wear.
        assert!(result.total_battery_replacements() > 0);
        // A 400-day MTBF across 4 devices over 3 years virtually
        // guarantees failures — and every failure is eventually refilled.
        assert!(result.total_device_failures() > 0);
        assert!(result.total_devices_replaced() > 0);
        // Day 0 carries the cloudlet's install embodied.
        assert!(result.day_ledger()[0].embodied().kilograms() >= 20.0);
        // Each year's days of the day ledger reproduce that year's cells.
        for year in 0..3 {
            let days = &result.day_ledger()[year * DAYS_PER_YEAR..(year + 1) * DAYS_PER_YEAR];
            let cells = [result.cell(year, 0), result.cell(year, 1)];
            let requests: f64 = cells.iter().map(|c| c.requests()).sum();
            let ledger: f64 = days.iter().map(DayLedger::requests).sum();
            assert!((ledger - requests).abs() <= 1e-9 * requests.max(1.0));
            let embodied: f64 = cells.iter().map(|c| c.embodied().grams()).sum();
            let ledger: f64 = days.iter().map(|d| d.embodied().grams()).sum();
            assert!((ledger - embodied).abs() <= 1e-9 * embodied);
        }
    }

    /// Two years of hourly windows over a cohort and a leased site.
    fn two_year_hourly_fleet() -> LifecycleSim {
        LifecycleSim::new(
            vec![cohort_site(9, 4), leased_site(800.0)],
            DiurnalSchedule::office_day(900.0),
            RoutingPolicy::CarbonAware,
            LifecycleConfig::years(2).windows_per_day(24),
        )
    }

    /// The bytes a plan of [`two_year_hourly_fleet`] holds per (window,
    /// site).
    fn bytes_per_window_and_site(sim: &LifecycleSim) -> f64 {
        let pairs = 2 * DAYS_PER_YEAR * 24 * 2;
        count_f64(sim.plan().retained_bytes()) / count_f64(pairs)
    }

    #[test]
    fn a_fault_free_plan_holds_under_8_bytes_per_window_and_site() {
        // The plan keeps the router's inputs, not its rows: the daily
        // dynamics (a day's 72 bytes spread over 24 windows) and each
        // cell's distinct loads, with no fault grid and no stored
        // outcome. Keeping each window's shares, intensities and declined
        // rate would add about 28 bytes.
        let per_pair = bytes_per_window_and_site(&two_year_hourly_fleet());
        assert!(per_pair < 8.0, "{per_pair:.1} bytes per (window, site)");
    }

    #[test]
    fn a_faulty_plan_holds_under_16_bytes_per_window_and_site() {
        // Faults add the 8-byte availability grid and the outcomes of the
        // windows they disturb.
        let faulty = two_year_hourly_fleet()
            .with_faults(
                FaultConfig::disabled()
                    .grid_outages(30.0, 4)
                    .firmware_batches(20.0, 0.5, 3),
            )
            .with_resilience(
                ResiliencePolicy::new()
                    .detection_lag_windows(1)
                    .retry(RetryPolicy::new(2)),
            );
        let per_pair = bytes_per_window_and_site(&faulty);
        assert!(per_pair < 16.0, "{per_pair:.1} bytes per (window, site)");
    }

    /// What a plan pass routes: each window's row and declined rate,
    /// the outcomes that differ from the healthy one, and each cell's
    /// loads with their seeds in first-window order.
    struct Routed {
        rows: Vec<(RouteRow, f64)>,
        resolutions: BTreeMap<usize, WindowResolution>,
        loads: Vec<Vec<((u64, u64), u64)>>,
    }

    /// The reference [`Routed`], rebuilt from the fleet alone: a fresh
    /// fault plan and dynamics, and each window routed and resolved in
    /// turn with the routing expressions written out here.
    fn routed_from_the_fleet(sim: &LifecycleSim) -> Routed {
        let (days, wpd, sites) = (sim.config.days, sim.config.windows_per_day, sim.sites.len());
        let dynamics: Vec<Vec<DayDynamics>> =
            (0..sites).map(|s| sim.simulate_dynamics(s, days)).collect();
        let faults = FaultPlan::generate(
            &sim.faults,
            days * wpd,
            sites,
            wpd,
            decorrelate_seed(sim.config.seed, 1 << 32),
        );
        let lag = sim.resilience.lag_windows();
        let healthy = WindowResolution::healthy(sites);
        let (mut rows, mut resolutions) = (Vec::new(), BTreeMap::new());
        let mut loads = vec![Vec::new(); days.div_ceil(DAYS_PER_YEAR) * sites];
        for w in 0..days * wpd {
            let (window, day) = (sim.schedule.window(w, wpd), w / wpd);
            let mut row = RouteRow::new(sites);
            let (mut true_cap, mut avail) = (vec![0.0; sites], vec![0.0; sites]);
            for (s, site) in sim.sites.iter().enumerate() {
                row.intensities.push(
                    site.region()
                        .mean_intensity_between(window.start(), window.end()),
                );
                avail[s] = faults.availability(w, s);
                true_cap[s] = dynamics[s][day].capacity_qps * avail[s];
                let observed = if w >= lag {
                    faults.availability(w - lag, s)
                } else {
                    1.0
                };
                row.observed_cap[s] = if Some(s) == sim.resilience.fallback() {
                    0.0
                } else {
                    dynamics[s][day].capacity_qps * observed
                };
            }
            let declined = plan_window(
                sim.policy,
                &row.observed_cap,
                &row.intensities,
                &window,
                &mut row.shares,
            );
            let assigned: Vec<f64> = row.shares.iter().map(|(a, b)| (a + b) / 2.0).collect();
            let resolution = resolve_window(
                &assigned,
                &true_cap,
                &row.observed_cap,
                &avail,
                &sim.resilience,
            );
            for s in 0..sites {
                if let Some((start, end)) = slice_endpoints(row.shares[s], &resolution, s) {
                    let cell: &mut Vec<((u64, u64), u64)> =
                        &mut loads[day / DAYS_PER_YEAR * sites + s];
                    let load = (start.to_bits(), end.to_bits());
                    if cell.iter().all(|&(known, _)| known != load) {
                        let seed = decorrelate_seed(sim.config.seed, index_u64(w * sites + s) + 1);
                        cell.push((load, seed));
                    }
                }
            }
            if resolution != healthy {
                resolutions.insert(w, resolution);
            }
            rows.push((row, declined));
        }
        Routed {
            rows,
            resolutions,
            loads,
        }
    }

    /// Every number of a routed row, as bits.
    fn row_bits(row: &RouteRow, declined: f64) -> Vec<u64> {
        let intensities = row.intensities.iter().map(|i| i.grams_per_kwh());
        let shares = row.shares.iter().flat_map(|&(start, end)| [start, end]);
        intensities
            .chain(row.observed_cap.iter().copied())
            .chain(shares)
            .chain([declined])
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn accounting_re_derives_the_rows_the_plan_pass_routed() {
        // Random fault configurations over a cohort, a leased site and a
        // standby fallback, each with a lagged health view, retries and a
        // hedge: the plan's stored outcomes and cell loads are those of
        // the rows routed from the fleet itself, and re-routing each
        // window from the finished plan, as the accounting pass does,
        // gives those rows bit for bit.
        for case in 0..8_u64 {
            let draw = |k: u64| unit_draw(decorrelate_seed(case, k));
            let windows = |k: u64| 1 + floor_index(draw(k) * 6.0);
            let faults = FaultConfig::disabled()
                .grid_outages(1.0 + draw(1) * 9.0, windows(2))
                .firmware_batches(1.0 + draw(3) * 9.0, 0.1 + draw(4) * 0.9, windows(5))
                .thermal_shutdowns(2.0 + draw(6) * 18.0, windows(7));
            let sim = LifecycleSim::new(
                vec![cohort_site(case, 3), leased_site(700.0), leased_site(400.0)],
                DiurnalSchedule::office_day(900.0),
                RoutingPolicy::CarbonAware,
                LifecycleConfig::days(30).windows_per_day(6).seed(case),
            )
            .with_faults(faults)
            .with_resilience(
                ResiliencePolicy::new()
                    .detection_lag_windows(windows(8))
                    .retry(RetryPolicy::new(2).hedge_to_fallback())
                    .fallback_site(2),
            );
            let plan = sim.plan();
            let Routed {
                rows,
                resolutions,
                loads,
            } = routed_from_the_fleet(&sim);
            assert!(
                !resolutions.is_empty(),
                "case {case}: no window was disturbed"
            );
            assert_eq!(plan.resolutions, resolutions, "case {case}");
            let planned: Vec<_> = plan.cell_loads.iter().map(|c| c.first.clone()).collect();
            assert_eq!(planned, loads, "case {case}");
            let mut row = RouteRow::new(3);
            for (w, (routed, routed_declined)) in rows.iter().enumerate() {
                let (_, declined) = plan.route(w, &mut row);
                assert_eq!(
                    row_bits(&row, declined),
                    row_bits(routed, *routed_declined),
                    "case {case}, window {w}"
                );
            }
        }
    }

    #[test]
    fn capacity_shrinks_during_outages_and_routing_responds() {
        let sim = LifecycleSim::new(
            vec![cohort_site(9, 4), leased_site(800.0)],
            DiurnalSchedule::office_day(900.0),
            RoutingPolicy::CarbonAware,
            quick(LifecycleConfig::years(2)),
        );
        let dynamics = sim.simulate_dynamics(0, 2 * DAYS_PER_YEAR);
        let full = dynamics[0].capacity_qps;
        assert!((full - 1_200.0).abs() < 1e-9);
        // Outage days exist, and each loses whole 300-QPS device slots.
        let shrunk: Vec<&DayDynamics> = dynamics.iter().filter(|d| d.capacity_qps < full).collect();
        assert!(!shrunk.is_empty(), "no outages in two years");
        assert!(shrunk.iter().all(|d| d.capacity_qps % 300.0 == 0.0));
        // And capacity recovers after the lag.
        assert!(dynamics.last().unwrap().capacity_qps > 0.0);
        // The run itself stays capacity-safe while capacity moves.
        let result = sim.run().unwrap();
        assert!(result.total_requests() > 0.0);
        assert!(result.shed_requests() >= 0.0);
    }

    #[test]
    fn threaded_lifecycle_is_bit_identical_to_serial() {
        let run = |workers: usize| {
            LifecycleSim::new(
                vec![cohort_site(5, 3), leased_site(700.0)],
                DiurnalSchedule::office_day(600.0),
                RoutingPolicy::CarbonAware,
                quick(LifecycleConfig::years(2)).parallelism(workers),
            )
            .run()
            .unwrap()
        };
        let serial = run(1);
        for workers in [2, 4, 7] {
            assert_eq!(serial, run(workers), "worker count {workers}");
        }
    }

    /// One fleet through a caller-owned table: a batch of one.
    fn run_through(
        sim: &LifecycleSim,
        slices: &mut MeasuredSlices,
    ) -> Result<LifecycleResult, SimError> {
        let mut results = LifecycleSim::run_batch([sim.plan()], slices);
        assert_eq!(results.len(), 1);
        results.remove(0)
    }

    #[test]
    fn a_shared_table_measures_each_distinct_slice_once() {
        let sim = LifecycleSim::new(
            vec![cohort_site(5, 3), leased_site(700.0)],
            DiurnalSchedule::office_day(600.0),
            RoutingPolicy::CarbonAware,
            quick(LifecycleConfig::days(30)),
        );
        let mut slices = MeasuredSlices::new();
        assert!(slices.is_empty());
        let first = run_through(&sim, &mut slices).unwrap();
        assert_eq!(first, sim.run().unwrap());
        let measured = slices.len();
        assert!(measured > 0);
        // The same fleet again finds every slice in the table.
        assert_eq!(run_through(&sim, &mut slices).unwrap(), first);
        assert_eq!(slices.len(), measured);
    }

    #[test]
    fn a_failed_run_adds_nothing_to_the_table() {
        let broken = LifecycleSim::new(
            vec![cohort_site(5, 2).request_type("no-such-request")],
            DiurnalSchedule::office_day(300.0),
            RoutingPolicy::Static,
            quick(LifecycleConfig::days(3)).parallelism(2),
        );
        let mut slices = MeasuredSlices::new();
        assert_eq!(
            run_through(&broken, &mut slices),
            Err(SimError::UnknownRequestType("no-such-request".into()))
        );
        assert!(slices.is_empty());
    }

    /// A batch that mixes every kind of member: a fleet and its fault-free
    /// twin under a retrying policy (they share every slice), the same
    /// sites at another warm-up and slice length, a faulty fleet with a
    /// standby fallback, and a lone leased site.
    fn mixed_members(workers: usize) -> Vec<LifecycleSim> {
        let fleet = |config: LifecycleConfig| {
            LifecycleSim::new(
                vec![cohort_site(5, 3), leased_site(700.0)],
                DiurnalSchedule::office_day(600.0),
                RoutingPolicy::CarbonAware,
                config.parallelism(workers),
            )
        };
        let days = quick(LifecycleConfig::days(20));
        vec![
            fleet(days),
            fleet(days).with_resilience(
                ResiliencePolicy::new()
                    .detection_lag_windows(2)
                    .retry(RetryPolicy::new(2)),
            ),
            fleet(days.warmup_s(1.0).sim_slice_s(2.0)),
            fleet(days)
                .with_faults(
                    FaultConfig::disabled()
                        .grid_outages(4.0, 2)
                        .firmware_batches(5.0, 0.5, 2),
                )
                .with_resilience(
                    ResiliencePolicy::new()
                        .detection_lag_windows(1)
                        .retry(RetryPolicy::new(2).hedge_to_fallback())
                        .fallback_site(1),
                ),
            LifecycleSim::new(
                vec![leased_site(500.0)],
                DiurnalSchedule::flat(300.0),
                RoutingPolicy::Static,
                days.parallelism(workers),
            ),
        ]
    }

    #[test]
    fn a_mixed_batch_reproduces_each_members_own_run() {
        for workers in [1, 2, 8] {
            let members = mixed_members(workers);
            let own: Vec<LifecycleResult> = members.iter().map(|m| m.run().unwrap()).collect();
            let mut table = MeasuredSlices::new();
            let batch = LifecycleSim::run_batch(members.iter().map(LifecycleSim::plan), &mut table);
            let batch: Vec<LifecycleResult> = batch.into_iter().map(Result::unwrap).collect();
            assert_eq!(batch, own, "worker count {workers}");

            // The table holds exactly the union of the members' own
            // slices, each simulation named by its place in this table.
            let mut union = BTreeSet::new();
            let mut standalone = 0;
            for member in &members {
                let mut alone = MeasuredSlices::new();
                run_through(member, &mut alone).unwrap();
                standalone += alone.len();
                for key in alone.index.keys() {
                    let (sim, request_type) = &alone.sims[key.sim];
                    let sim = table
                        .sims
                        .iter()
                        .position(|(known, known_type)| known_type == request_type && known == sim)
                        .expect("every member's simulation is in the batch table");
                    union.insert(SliceKey { sim, ..*key });
                }
            }
            assert_eq!(table.index.keys().copied().collect::<BTreeSet<_>>(), union);
            assert_eq!(table.len(), union.len());
            assert!(union.len() < standalone, "the twins share their slices");
            let mut positions: Vec<usize> = table.index.values().copied().collect();
            positions.sort_unstable();
            assert_eq!(positions, (0..table.len()).collect::<Vec<_>>());

            // Re-running the batch measures nothing new.
            let again = LifecycleSim::run_batch(members.iter().map(LifecycleSim::plan), &mut table);
            assert_eq!(table.len(), union.len());
            assert_eq!(
                again.into_iter().map(Result::unwrap).collect::<Vec<_>>(),
                own
            );
        }
    }

    #[test]
    fn a_failing_member_returns_its_own_error_and_the_batch_adds_nothing() {
        // Both sites of the broken member fail; its own run reports the
        // first failing slice in (cell, window) order, cell 0's.
        let mut members = mixed_members(2);
        members.insert(
            1,
            LifecycleSim::new(
                vec![
                    cohort_site(5, 3).request_type("no-such-request"),
                    leased_site(700.0).request_type("another-missing-request"),
                ],
                DiurnalSchedule::office_day(600.0),
                RoutingPolicy::Static,
                quick(LifecycleConfig::days(20)).parallelism(2),
            ),
        );
        let mut table = MeasuredSlices::new();
        let batch = LifecycleSim::run_batch(members.iter().map(LifecycleSim::plan), &mut table);
        for (member, result) in members.iter().zip(&batch) {
            assert_eq!(*result, member.run());
        }
        assert_eq!(
            batch[1],
            Err(SimError::UnknownRequestType("no-such-request".into()))
        );
        assert_eq!(batch.iter().filter(|r| r.is_ok()).count(), 5);
        assert!(table.is_empty());
        assert!(table.sims.is_empty());
    }

    #[test]
    fn smart_charging_scales_operational_carbon_on_diurnal_grids() {
        // A full synthetic month at the calibrated 5-minute step: coarse
        // steps blunt the policy (one 30-minute charge quantum nearly
        // fills a phone pack), so the savings assertion runs at the
        // fidelity the paper's Figure 4 uses.
        let region = GridRegion::new(
            "caiso-month",
            CaisoSynthesizer::new(3, 30).intensity_trace(),
        );
        let site = LifecycleSite::try_cohort(
            "cloudlet",
            &tiny_sim(),
            region,
            vec![phone_slot(300.0), phone_slot(300.0)],
            GramsCo2e::ZERO,
        )
        .expect("the month-long cohort is valid");
        let sim = LifecycleSim::new(
            vec![site],
            DiurnalSchedule::flat(100.0),
            RoutingPolicy::Static,
            quick(LifecycleConfig::years(1)),
        );
        let dynamics = sim.simulate_dynamics(0, 30);
        // Warm-up day 0 has no history; later days shift charging into the
        // solar trough and beat the always-on-wall baseline.
        let scales: Vec<f64> = dynamics
            .iter()
            .skip(1)
            .map(|d| d.operational_scale)
            .collect();
        let mean = scales.iter().sum::<f64>() / scales.len() as f64;
        assert!(mean < 1.0, "mean scale {mean}");
        assert!(mean > 0.7, "mean scale {mean}");
    }

    #[test]
    fn leased_sites_amortise_embodied_linearly() {
        let run = |site: LifecycleSite| {
            LifecycleSim::new(
                vec![site],
                DiurnalSchedule::flat(100.0),
                RoutingPolicy::Static,
                quick(LifecycleConfig::years(1)),
            )
            .run()
            .unwrap()
        };
        let result = run(leased_site(500.0));
        let expected_daily = 1_344.0 / (4.0 * 365.25);
        let total = result.total_embodied().kilograms();
        assert!(
            (total - expected_daily * 365.0).abs() < 1e-6,
            "got {total} kg"
        );
        assert_eq!(result.total_battery_replacements(), 0);
        // The leased site's operational scale applies every day: half the
        // scale, half the operational carbon, the embodied bill unchanged.
        let halved = run(
            LifecycleSite::try_leased(datacenter(500.0).operational_scale(0.5))
                .expect("the test capacity is valid"),
        );
        let full = result.total_operational().grams();
        assert!(full > 0.0);
        assert!(
            (halved.total_operational().grams() - full * 0.5).abs() <= 1e-12 * full,
            "halved {} vs full {full}",
            halved.total_operational().grams()
        );
        assert_eq!(halved.total_embodied(), result.total_embodied());
    }

    #[test]
    fn idle_fleet_still_pays_idle_power_and_embodied() {
        let sim = LifecycleSim::new(
            vec![leased_site(500.0)],
            DiurnalSchedule::flat(0.0),
            RoutingPolicy::Static,
            quick(LifecycleConfig::days(1)),
        );
        let mut slices = MeasuredSlices::new();
        let result = run_through(&sim, &mut slices).unwrap();
        // Nothing was offered, so no slice ran and nothing was served...
        assert!(slices.is_empty());
        assert_eq!(result.offered_requests(), 0.0);
        assert!(result.grams_per_request().is_none());
        assert_eq!(result.worst_tail_ms(), 0.0);
        // ...but the site still draws idle power and amortises its lease.
        assert!(result.total_operational().grams() > 0.0);
        assert!(result.total_embodied().grams() > 0.0);
    }

    #[test]
    fn trajectory_amortises_the_install_over_years() {
        let sim = LifecycleSim::new(
            vec![cohort_site(11, 3)],
            DiurnalSchedule::flat(200.0),
            RoutingPolicy::Static,
            quick(LifecycleConfig::years(3)),
        );
        let result = sim.run().unwrap();
        let trajectory = result.yearly_trajectory();
        assert_eq!(trajectory.len(), 3);
        // Cumulative carbon per request falls as the install amortises
        // (battery replacements notwithstanding at this light load).
        assert!(trajectory[0].1 > trajectory[2].1);
        let through_first_year = result
            .grams_per_request_through_day(DAYS_PER_YEAR - 1)
            .unwrap();
        assert!((through_first_year - trajectory[0].1).abs() < 1e-12);
    }

    #[test]
    fn day_capped_horizon_shortens_the_last_cell() {
        let sim = |config: LifecycleConfig| {
            LifecycleSim::new(
                vec![cohort_site(9, 2)],
                DiurnalSchedule::office_day(400.0),
                RoutingPolicy::Static,
                config,
            )
        };
        // A one-site cell's requests are its days of the day ledger,
        // summed in day order.
        let days_sum = |days: &[DayLedger]| days.iter().map(DayLedger::requests).sum::<f64>();
        // Three days fit inside one (short) year cell.
        let short = sim(quick(LifecycleConfig::days(3))).run().unwrap();
        assert_eq!(short.cells().len(), 1);
        assert_eq!(short.day_ledger().len(), 3);
        assert_eq!(short.cell(0, 0).requests(), days_sum(short.day_ledger()));
        assert!(short.total_requests() > 0.0);
        // 400 days span two cells: a full year and a 35-day remainder.
        let spanning = sim(quick(LifecycleConfig::days(400))).run().unwrap();
        assert_eq!(spanning.years(), 2);
        assert_eq!(spanning.cells().len(), 2);
        assert_eq!(spanning.day_ledger().len(), 400);
        let (first_year, rest) = spanning.day_ledger().split_at(DAYS_PER_YEAR);
        assert_eq!(spanning.cell(0, 0).requests(), days_sum(first_year));
        assert_eq!(rest.len(), 35);
        assert_eq!(spanning.cell(1, 0).requests(), days_sum(rest));
        // The day-capped prefix agrees with the plain run's first days.
        let full = sim(quick(LifecycleConfig::years(1))).run().unwrap();
        assert_eq!(full.day_ledger()[..3], *short.day_ledger());
    }

    #[test]
    fn latency_percentile_hooks_order_sensibly_under_load() {
        let result = LifecycleSim::new(
            vec![cohort_site(9, 2)],
            DiurnalSchedule::office_day(500.0),
            RoutingPolicy::Static,
            quick(LifecycleConfig::days(2)),
        )
        .run()
        .unwrap();
        assert!(result.worst_median_ms() > 0.0);
        assert!(result.worst_tail_ms() >= result.worst_median_ms());
        assert!(result.worst_p99_ms() >= result.worst_tail_ms());
        assert!((0.0..=1.0).contains(&result.shed_fraction()));
    }

    #[test]
    fn partial_day_region_is_rejected() {
        let trace = IntensityTrace::constant(
            CarbonIntensity::from_grams_per_kwh(300.0),
            TimeSpan::from_hours(1.0),
            TimeSpan::from_hours(30.0),
        );
        let region = GridRegion::new("bad", trace);
        let cohort = LifecycleSite::try_cohort(
            "bad",
            &tiny_sim(),
            region.clone(),
            vec![phone_slot(100.0)],
            GramsCo2e::ZERO,
        );
        let leased = LifecycleSite::try_leased(FleetSite::new("bad", &tiny_sim(), region, 100.0));
        for err in [cohort.unwrap_err(), leased.unwrap_err()] {
            assert!(
                err.message.contains("whole number of days"),
                "unexpected message: {err}"
            );
        }
    }

    #[test]
    fn leased_failures_return_an_actionable_error_instead_of_panicking() {
        let err = leased_site(500.0).failures(300.0, 4).unwrap_err();
        assert!(
            err.message.contains("cohort sites only"),
            "unexpected message: {err}"
        );
        assert!(
            err.message.contains("FaultConfig"),
            "the error should point at the fault layer: {err}"
        );
        // Out-of-range parameters error too, on any backend.
        let err = cohort_site(1, 2).failures(0.0, 4).unwrap_err();
        assert!(err.message.contains("positive"), "got: {err}");
        let err = cohort_site(1, 2).failures(f64::NAN, 4).unwrap_err();
        assert!(err.message.contains("finite"), "got: {err}");
        // So does a leased site whose capacity is not finite, or a zero
        // share of a registered one.
        for site in [datacenter(f64::INFINITY), datacenter(500.0).scaled(0.0)] {
            let err = LifecycleSite::try_leased(site).unwrap_err();
            assert!(
                err.message.contains("positive and finite"),
                "unexpected message: {err}"
            );
        }
    }

    #[test]
    fn disabled_faults_and_plain_resilience_are_bit_identical_to_baseline() {
        let build = || {
            LifecycleSim::new(
                vec![cohort_site(9, 3), leased_site(700.0)],
                DiurnalSchedule::office_day(700.0),
                RoutingPolicy::CarbonAware,
                quick(LifecycleConfig::days(30)),
            )
        };
        let baseline = build().run().unwrap();
        let disabled = build().with_faults(FaultConfig::disabled()).run().unwrap();
        assert_eq!(baseline, disabled);
        // A resilience policy without faults and without a fallback site
        // changes nothing either: lag and retries only matter once
        // capacity can actually die.
        let idle_policy = build()
            .with_resilience(
                ResiliencePolicy::new()
                    .detection_lag_windows(2)
                    .retry(crate::faults::RetryPolicy::new(2)),
            )
            .run()
            .unwrap();
        assert_eq!(baseline, idle_policy);
        assert_eq!(baseline.failed_requests(), 0.0);
        assert!((baseline.availability() - 1.0).abs() < 1e-12);
        assert_eq!(baseline.downtime_windows(0.999), 0);
        assert_eq!(baseline.total_retry_carbon(), GramsCo2e::ZERO);
    }

    #[test]
    fn stale_outages_fail_requests_and_an_omniscient_router_avoids_them() {
        let faults = FaultConfig::disabled().grid_outages(5.0, 3);
        let build = |lag: usize| {
            LifecycleSim::new(
                vec![cohort_site(9, 3), leased_site(700.0)],
                DiurnalSchedule::office_day(900.0),
                RoutingPolicy::CarbonAware,
                quick(LifecycleConfig::days(40)),
            )
            .with_faults(faults)
            .with_resilience(ResiliencePolicy::new().detection_lag_windows(lag))
        };
        let stale = build(2).run().unwrap();
        assert!(
            stale.failed_requests() > 0.0,
            "a 5-day outage MTBF over 40 days with a stale router must fail requests"
        );
        assert!(stale.availability() < 1.0);
        assert!(stale
            .window_health()
            .iter()
            .any(|health| health.success_rate() < 1.0));
        // Detection lag zero: the router sees the truth every window, so
        // nothing lands on dead capacity and nothing fails.
        let omniscient = build(0).run().unwrap();
        assert_eq!(omniscient.failed_requests(), 0.0);
        assert!((omniscient.availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn retries_recover_requests_and_are_charged_their_carbon() {
        let faults = FaultConfig::disabled().firmware_batches(4.0, 0.5, 2);
        let build = |policy: ResiliencePolicy| {
            LifecycleSim::new(
                vec![cohort_site(9, 4), leased_site(900.0)],
                DiurnalSchedule::office_day(1_000.0),
                RoutingPolicy::CarbonAware,
                quick(LifecycleConfig::days(40)),
            )
            .with_faults(faults)
            .with_resilience(policy)
        };
        let bare = build(ResiliencePolicy::new().detection_lag_windows(1))
            .run()
            .unwrap();
        let retrying = build(
            ResiliencePolicy::new()
                .detection_lag_windows(1)
                .retry(crate::faults::RetryPolicy::new(3)),
        )
        .run()
        .unwrap();
        assert!(bare.failed_requests() > 0.0);
        assert!(
            retrying.failed_requests() < bare.failed_requests(),
            "retries must recover some failures: {} vs {}",
            retrying.failed_requests(),
            bare.failed_requests()
        );
        assert!(retrying.retried_ok_requests() > 0.0);
        assert!(
            retrying.total_retry_carbon().grams() > 0.0,
            "every retry attempt must be charged"
        );
        assert_eq!(bare.total_retry_carbon(), GramsCo2e::ZERO);
    }

    #[test]
    fn degradation_ladder_trades_failures_for_shed_and_brownout() {
        let faults = FaultConfig::disabled().thermal_shutdowns(6.0, 2);
        let build = |policy: ResiliencePolicy| {
            LifecycleSim::new(
                vec![cohort_site(9, 4), leased_site(400.0)],
                DiurnalSchedule::office_day(1_100.0),
                RoutingPolicy::CarbonAware,
                quick(LifecycleConfig::days(40)),
            )
            .with_faults(faults)
            .with_resilience(policy)
        };
        let bare = build(ResiliencePolicy::new().detection_lag_windows(1))
            .run()
            .unwrap();
        let degraded = build(
            ResiliencePolicy::new()
                .detection_lag_windows(1)
                .degradation(
                    DegradationLadder::new()
                        .shed_low_priority(0.5)
                        .brownout(1.3),
                ),
        )
        .run()
        .unwrap();
        assert!(bare.failed_requests() > 0.0);
        assert!(degraded.failed_requests() < bare.failed_requests());
        assert!(
            degraded.low_priority_shed_requests() > 0.0
                || degraded.brownout_requests() > 0.0
                || degraded.rerouted_requests() > 0.0,
            "the ladder must have done something"
        );
    }

    #[test]
    fn faulty_runs_conserve_offered_demand_and_stay_deterministic() {
        let faults = FaultConfig::disabled()
            .grid_outages(7.0, 2)
            .firmware_batches(5.0, 0.4, 3);
        let build = |workers: usize| {
            LifecycleSim::new(
                vec![cohort_site(9, 3), leased_site(600.0)],
                DiurnalSchedule::office_day(800.0),
                RoutingPolicy::CarbonAware,
                quick(LifecycleConfig::days(35)).parallelism(workers),
            )
            .with_faults(faults)
            .with_resilience(
                ResiliencePolicy::new()
                    .detection_lag_windows(1)
                    .retry(crate::faults::RetryPolicy::new(2).hedge_to_fallback())
                    .degradation(DegradationLadder::new().shed_low_priority(0.3))
                    .fallback_site(1),
            )
        };
        let serial = build(1).run().unwrap();
        // Conservation: everything the schedule offered lands in exactly
        // one bucket.
        let schedule_offered: f64 = serial
            .window_health()
            .iter()
            .map(WindowHealth::offered)
            .sum::<f64>()
            + serial.router_declined_requests();
        let accounted = serial.offered_requests();
        assert!(
            (schedule_offered - accounted).abs() <= 1e-6 * schedule_offered.max(1.0),
            "conservation: offered {schedule_offered} vs accounted {accounted}"
        );
        assert!(serial.goodput_qps() > 0.0);
        // And the faulty path keeps the slot-pattern determinism.
        for workers in [2, 5] {
            assert_eq!(serial, build(workers).run().unwrap(), "workers {workers}");
        }
    }

    #[test]
    fn a_fault_free_standby_fails_nothing_at_a_saturated_window() {
        // Static routing gives the primary `284.7 × (100 / 284.7)` QPS,
        // one ulp above its 100 QPS capacity. Nothing is faulty, so that
        // rounding must not fail a request.
        let result = LifecycleSim::new(
            vec![leased_site(100.0), leased_site(100.0)],
            DiurnalSchedule::flat(284.7),
            RoutingPolicy::Static,
            quick(LifecycleConfig::days(2)),
        )
        .with_resilience(ResiliencePolicy::new().fallback_site(1))
        .run()
        .unwrap();
        assert!(result.router_declined_requests() > 0.0);
        assert_eq!(result.failed_requests(), 0.0);
        assert_eq!(result.availability(), 1.0);
    }

    #[test]
    #[should_panic(expected = "site index 2 out of range")]
    fn an_out_of_range_site_panics_instead_of_reading_the_next_year() {
        // Year 0, site 2 of a two-site, two-year run would otherwise
        // read year 1's first cell. Nothing is offered, so no slice runs.
        let result = LifecycleSim::new(
            vec![leased_site(500.0), leased_site(500.0)],
            DiurnalSchedule::flat(0.0),
            RoutingPolicy::Static,
            quick(LifecycleConfig::years(2)),
        )
        .run()
        .unwrap();
        assert_eq!(result.cells().len(), 4);
        let _ = result.cell(0, 2);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_fleet_panics() {
        let _ = LifecycleSim::new(
            vec![],
            DiurnalSchedule::flat(10.0),
            RoutingPolicy::Static,
            LifecycleConfig::days(1),
        );
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn a_zero_day_horizon_panics() {
        let _ = LifecycleConfig::days(0);
    }

    #[test]
    #[should_panic(expected = "whole number of seconds")]
    fn a_fractional_slice_panics() {
        let _ = LifecycleConfig::days(1).sim_slice_s(1.5);
    }

    #[test]
    #[should_panic(expected = "slice duration must be positive")]
    fn a_zero_slice_panics() {
        let _ = LifecycleConfig::days(1).sim_slice_s(0.0);
    }

    #[test]
    #[should_panic(expected = "whole number of seconds")]
    fn a_fractional_warmup_panics() {
        let _ = LifecycleConfig::days(1).warmup_s(0.5);
    }

    #[test]
    #[should_panic(expected = "warm-up cannot be negative")]
    fn a_negative_warmup_panics() {
        let _ = LifecycleConfig::days(1).warmup_s(-1.0);
    }

    #[test]
    #[should_panic(expected = "at least one window per day")]
    fn zero_windows_per_day_panics() {
        let _ = LifecycleConfig::days(1).windows_per_day(0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = LifecycleConfig::days(1).parallelism(0);
    }
}
