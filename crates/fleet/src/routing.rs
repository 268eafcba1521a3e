//! Per-window traffic assignment across fleet sites.
//!
//! Two policies bracket the design space:
//!
//! * [`RoutingPolicy::Static`] — the paper's static placement: every site
//!   takes a fixed share of the traffic proportional to its capacity,
//!   whatever the grids are doing.
//! * [`RoutingPolicy::CarbonAware`] — per window, sites are filled
//!   greedily in ascending order of their grid's *current* (window-mean)
//!   carbon intensity, each up to its capacity. Load follows the sun: a
//!   solar-heavy region absorbs the fleet at midday and hands it back at
//!   dusk.
//!
//! Both policies are capacity-safe: no site is ever assigned more than its
//! declared capacity, and demand beyond the fleet's aggregate cap is
//! recorded as *declined* rather than silently overloading a site.
//!
//! # Shed semantics
//!
//! Two distinct mechanisms can lose a request, and the fleet layers report
//! them separately:
//!
//! * **Router declined** — demand the planner could not place anywhere
//!   because the fleet's aggregate (capped) capacity was exhausted. This
//!   is decided here, per window, before any simulation runs, and is
//!   reported by [`WindowAssignment::declined_mean_qps`].
//! * **Queue dropped** — requests a site *accepted* but then lost at a
//!   bounded application queue inside the microsim (see
//!   `junkyard_microsim::ServerModel::with_queue_size`). The router never
//!   sees these; the lifecycle simulator measures them per slice and
//!   surfaces them as `queue_dropped_requests`.
//!
//! Fleet-level *shed* is the sum of the two. At this layer nothing has
//! been simulated yet, so a [`WindowAssignment`] reports only the
//! declined component.
//!
//! The simulator traces each window's plan through the crate-private
//! `record_routes`: a `route` event per site that took traffic and one
//! for the declined demand, recorded on the serial side before any
//! slice runs.

use junkyard_carbon::units::CarbonIntensity;
use junkyard_obs::{EventKind, Recorder, TraceEvent};

use crate::schedule::LoadWindow;

/// A traffic-assignment policy.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum RoutingPolicy {
    /// Capacity-proportional fixed shares (the paper's static placement).
    Static,
    /// Fill the cleanest region first, each site up to its capacity.
    CarbonAware,
}

impl RoutingPolicy {
    /// Display label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::Static => "static",
            RoutingPolicy::CarbonAware => "carbon-aware",
        }
    }
}

/// The per-site split of one window's traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAssignment {
    window: usize,
    /// Per-site `(qps_start, qps_end)`, same order as the fleet's sites.
    shares: Vec<(f64, f64)>,
    declined_mean_qps: f64,
}

impl WindowAssignment {
    /// Per-site `(qps_start, qps_end)` pairs, in fleet site order.
    #[must_use]
    pub fn shares(&self) -> &[(f64, f64)] {
        &self.shares
    }

    /// Mean offered load the *router* could not place (demand beyond the
    /// aggregate capacity cap), requests per second.
    ///
    /// This is only the router-declined component of shed — sites may
    /// additionally drop accepted requests at bounded queues (see the
    /// module docs on shed semantics).
    #[must_use]
    pub fn declined_mean_qps(&self) -> f64 {
        self.declined_mean_qps
    }

    /// Time-averaged rate assigned to site `site`.
    #[must_use]
    pub fn site_mean_qps(&self, site: usize) -> f64 {
        let (start, end) = self.shares[site];
        (start + end) / 2.0
    }
}

/// The per-site facts a routing policy needs to split one window: how
/// much the site can take and how dirty its grid is over the window. The
/// lifecycle simulator re-plans every window from these as cohort
/// capacity shrinks and recovers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteWindowInput {
    /// Highest offered load the router may assign, requests/second.
    pub capacity_qps: f64,
    /// Window-mean carbon intensity of the site's grid region.
    pub intensity: CarbonIntensity,
}

/// Plans one window's assignment under `policy` from each site's
/// capacity and window-mean intensity.
///
/// The split is computed against the window's *peak* rate, so the
/// per-site assignment respects the capacity cap at every instant of the
/// window, not just on average.
#[must_use]
pub fn plan_window(
    policy: RoutingPolicy,
    sites: &[SiteWindowInput],
    window: &LoadWindow,
) -> WindowAssignment {
    let peak = window.peak_qps();
    if peak <= 0.0 {
        return WindowAssignment {
            window: window.index(),
            shares: vec![(0.0, 0.0); sites.len()],
            declined_mean_qps: 0.0,
        };
    }
    // `fractions[i]` is the share of the window's demand routed to site i;
    // the policies differ only in how these are chosen.
    let fractions: Vec<f64> = match policy {
        RoutingPolicy::Static => {
            let total_cap: f64 = sites.iter().map(|s| s.capacity_qps).sum();
            if total_cap <= 0.0 {
                // Nothing can serve: everything sheds.
                vec![0.0; sites.len()]
            } else {
                // Proportional shares saturate all sites simultaneously, so
                // a single scale factor keeps every site within capacity.
                let scale = (total_cap / peak).min(1.0);
                sites
                    .iter()
                    .map(|s| s.capacity_qps / total_cap * scale)
                    .collect()
            }
        }
        RoutingPolicy::CarbonAware => {
            // Order sites by their grid's window-mean intensity; fill the
            // cleanest first. Ties break on site index, so the plan is
            // deterministic.
            let mut order: Vec<(usize, f64)> = sites
                .iter()
                .enumerate()
                .map(|(i, s)| (i, s.intensity.grams_per_kwh()))
                .collect();
            order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let mut fractions = vec![0.0; sites.len()];
            let mut remaining = peak;
            for (index, _) in order {
                if remaining <= 0.0 {
                    break;
                }
                let take = remaining.min(sites[index].capacity_qps);
                fractions[index] = take / peak;
                remaining -= take;
            }
            fractions
        }
    };
    let placed: f64 = fractions.iter().sum();
    WindowAssignment {
        window: window.index(),
        shares: fractions
            .iter()
            .map(|f| (f * window.qps_start(), f * window.qps_end()))
            .collect(),
        declined_mean_qps: (1.0 - placed).max(0.0) * window.mean_qps(),
    }
}

/// Traces one window's routing decisions: a `route` event per site the
/// plan assigned traffic to, keyed by `site_names` in fleet site order,
/// and one for the demand it declined. The lifecycle calls this on its
/// serial side, so tracing never touches the measured results.
pub(crate) fn record_routes<'a, R: Recorder>(
    recorder: &mut R,
    window: &LoadWindow,
    plan: &WindowAssignment,
    site_names: impl Iterator<Item = &'a str>,
) {
    if !recorder.enabled() {
        return;
    }
    let t = window.start().seconds();
    let detail = format!("w{}", window.index());
    for (s, name) in site_names.enumerate() {
        let qps = plan.site_mean_qps(s);
        if qps > 0.0 {
            recorder.event(TraceEvent::new(EventKind::Route, t, name, qps).with_detail(&detail));
        }
    }
    let declined = plan.declined_mean_qps();
    if declined > 0.0 {
        recorder
            .event(TraceEvent::new(EventKind::Route, t, "declined", declined).with_detail(&detail));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::DiurnalSchedule;

    fn site(grams: f64, capacity_qps: f64) -> SiteWindowInput {
        SiteWindowInput {
            capacity_qps,
            intensity: CarbonIntensity::from_grams_per_kwh(grams),
        }
    }

    fn one_window(qps: f64) -> LoadWindow {
        DiurnalSchedule::flat(qps).windows(1, 1)[0]
    }

    #[test]
    fn static_shares_are_capacity_proportional() {
        let sites = [site(300.0, 600.0), site(200.0, 200.0)];
        let plan = plan_window(RoutingPolicy::Static, &sites, &one_window(400.0));
        assert!((plan.site_mean_qps(0) - 300.0).abs() < 1e-9);
        assert!((plan.site_mean_qps(1) - 100.0).abs() < 1e-9);
        assert_eq!(plan.declined_mean_qps(), 0.0);
    }

    #[test]
    fn carbon_aware_fills_the_cleanest_region_first() {
        let sites = [site(400.0, 600.0), site(100.0, 600.0)];
        let plan = plan_window(RoutingPolicy::CarbonAware, &sites, &one_window(500.0));
        // The clean site absorbs everything it can before the dirty one.
        assert!((plan.site_mean_qps(1) - 500.0).abs() < 1e-9);
        assert_eq!(plan.site_mean_qps(0), 0.0);
        // With more demand than the clean site's cap, the overflow spills.
        let plan = plan_window(RoutingPolicy::CarbonAware, &sites, &one_window(900.0));
        assert!((plan.site_mean_qps(1) - 600.0).abs() < 1e-9);
        assert!((plan.site_mean_qps(0) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn both_policies_respect_capacity_and_record_shed() {
        let sites = [site(300.0, 400.0), site(200.0, 100.0)];
        for policy in [RoutingPolicy::Static, RoutingPolicy::CarbonAware] {
            let plan = plan_window(policy, &sites, &one_window(1_000.0));
            for (i, s) in sites.iter().enumerate() {
                let (start, end) = plan.shares()[i];
                assert!(start <= s.capacity_qps + 1e-9);
                assert!(end <= s.capacity_qps + 1e-9);
            }
            let placed: f64 = (0..sites.len()).map(|i| plan.site_mean_qps(i)).sum();
            assert!((placed + plan.declined_mean_qps() - 1_000.0).abs() < 1e-9);
            assert!(
                (plan.declined_mean_qps() - 500.0).abs() < 1e-9,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn idle_windows_assign_nothing() {
        let plan = plan_window(
            RoutingPolicy::Static,
            &[site(100.0, 1_000.0)],
            &one_window(0.0),
        );
        assert_eq!(plan.shares(), &[(0.0, 0.0)]);
        assert_eq!(plan.declined_mean_qps(), 0.0);
    }
}
