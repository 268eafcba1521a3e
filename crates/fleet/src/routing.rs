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
//!   the rate [`plan_window`] returns.
//! * **Queue dropped** — requests a site *accepted* but then lost at a
//!   bounded application queue inside the microsim (see
//!   `junkyard_microsim::ServerModel::with_queue_size`). The router never
//!   sees these; the lifecycle simulator measures them per slice and
//!   surfaces them as `queue_dropped_requests`.
//!
//! Fleet-level *shed* is the sum of the two. At this layer nothing has
//! been simulated yet, so a window's plan carries only the declined
//! component.
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

/// Plans one window's split under `policy` from each site's capacity
/// (requests/second) and window-mean grid intensity, both in fleet site
/// order. Site `s`'s `(qps_start, qps_end)` is written to `shares[s]`, and
/// the mean rate the router could not place anywhere (demand beyond the
/// aggregate capacity cap) is returned — only the router-declined
/// component of shed (see the module docs on shed semantics).
///
/// The split is computed against the window's *peak* rate, so the
/// per-site assignment respects the capacity cap at every instant of the
/// window, not just on average.
///
/// # Panics
///
/// Panics if `intensities` or `shares` is shorter than `capacities`.
pub fn plan_window(
    policy: RoutingPolicy,
    capacities: &[f64],
    intensities: &[CarbonIntensity],
    window: &LoadWindow,
    shares: &mut [(f64, f64)],
) -> f64 {
    let sites = capacities.len();
    let (intensities, shares) = (&intensities[..sites], &mut shares[..sites]);
    let peak = window.peak_qps();
    if peak <= 0.0 {
        shares.fill((0.0, 0.0));
        return 0.0;
    }
    // `fractions[i]` is the share of the window's demand routed to site i;
    // the policies differ only in how these are chosen.
    let fractions: Vec<f64> = match policy {
        RoutingPolicy::Static => {
            let total_cap: f64 = capacities.iter().sum();
            if total_cap <= 0.0 {
                // Nothing can serve: everything sheds.
                vec![0.0; sites]
            } else {
                // Proportional shares saturate all sites simultaneously, so
                // a single scale factor keeps every site within capacity.
                let scale = (total_cap / peak).min(1.0);
                capacities
                    .iter()
                    .map(|capacity| capacity / total_cap * scale)
                    .collect()
            }
        }
        RoutingPolicy::CarbonAware => {
            // Order sites by their grid's window-mean intensity; fill the
            // cleanest first. Ties break on site index, so the plan is
            // deterministic.
            let mut order: Vec<(usize, f64)> = intensities
                .iter()
                .enumerate()
                .map(|(i, intensity)| (i, intensity.grams_per_kwh()))
                .collect();
            order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let mut fractions = vec![0.0; sites];
            let mut remaining = peak;
            for (index, _) in order {
                if remaining <= 0.0 {
                    break;
                }
                let take = remaining.min(capacities[index]);
                fractions[index] = take / peak;
                remaining -= take;
            }
            fractions
        }
    };
    for (share, f) in shares.iter_mut().zip(&fractions) {
        *share = (f * window.qps_start(), f * window.qps_end());
    }
    let placed: f64 = fractions.iter().sum();
    (1.0 - placed).max(0.0) * window.mean_qps()
}

/// Traces one window's routing decisions: a `route` event per site the
/// plan's `shares` assigned traffic to, keyed by `site_names` in fleet
/// site order, and one for the `declined` rate. The lifecycle calls this
/// on its serial side, so tracing never touches the measured results.
pub(crate) fn record_routes<'a, R: Recorder>(
    recorder: &mut R,
    window: &LoadWindow,
    shares: &[(f64, f64)],
    declined: f64,
    site_names: impl Iterator<Item = &'a str>,
) {
    if !recorder.enabled() {
        return;
    }
    let t = window.start().seconds();
    let detail = format!("w{}", window.index());
    for (&(start, end), name) in shares.iter().zip(site_names) {
        let qps = (start + end) / 2.0;
        if qps > 0.0 {
            recorder.event(TraceEvent::new(EventKind::Route, t, name, qps).with_detail(&detail));
        }
    }
    if declined > 0.0 {
        recorder
            .event(TraceEvent::new(EventKind::Route, t, "declined", declined).with_detail(&detail));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::DiurnalSchedule;

    fn one_window(qps: f64) -> LoadWindow {
        DiurnalSchedule::flat(qps).windows(1, 1)[0]
    }

    /// Plans one window over sites given as `(grams/kWh, capacity)`:
    /// each site's mean rate and the declined rate.
    fn plan(policy: RoutingPolicy, sites: &[(f64, f64)], qps: f64) -> (Vec<f64>, f64) {
        let capacities: Vec<f64> = sites.iter().map(|&(_, capacity)| capacity).collect();
        let intensities: Vec<CarbonIntensity> = sites
            .iter()
            .map(|&(grams, _)| CarbonIntensity::from_grams_per_kwh(grams))
            .collect();
        let mut shares = vec![(f64::NAN, f64::NAN); sites.len()];
        let declined = plan_window(
            policy,
            &capacities,
            &intensities,
            &one_window(qps),
            &mut shares,
        );
        for (&(start, end), capacity) in shares.iter().zip(&capacities) {
            assert!(start <= capacity + 1e-9 && end <= capacity + 1e-9);
        }
        let means = shares.iter().map(|(start, end)| (start + end) / 2.0);
        (means.collect(), declined)
    }

    #[test]
    fn static_shares_are_capacity_proportional() {
        let (means, declined) = plan(
            RoutingPolicy::Static,
            &[(300.0, 600.0), (200.0, 200.0)],
            400.0,
        );
        assert!((means[0] - 300.0).abs() < 1e-9);
        assert!((means[1] - 100.0).abs() < 1e-9);
        assert_eq!(declined, 0.0);
    }

    #[test]
    fn carbon_aware_fills_the_cleanest_region_first() {
        let sites = [(400.0, 600.0), (100.0, 600.0)];
        let (means, _) = plan(RoutingPolicy::CarbonAware, &sites, 500.0);
        // The clean site absorbs everything it can before the dirty one.
        assert!((means[1] - 500.0).abs() < 1e-9);
        assert_eq!(means[0], 0.0);
        // With more demand than the clean site's cap, the overflow spills.
        let (means, _) = plan(RoutingPolicy::CarbonAware, &sites, 900.0);
        assert!((means[1] - 600.0).abs() < 1e-9);
        assert!((means[0] - 300.0).abs() < 1e-9);
    }

    #[test]
    fn both_policies_respect_capacity_and_record_shed() {
        for policy in [RoutingPolicy::Static, RoutingPolicy::CarbonAware] {
            let (means, declined) = plan(policy, &[(300.0, 400.0), (200.0, 100.0)], 1_000.0);
            let placed: f64 = means.iter().sum();
            assert!((placed + declined - 1_000.0).abs() < 1e-9);
            assert!((declined - 500.0).abs() < 1e-9, "{policy:?}");
        }
    }

    #[test]
    fn idle_windows_assign_nothing() {
        let (means, declined) = plan(RoutingPolicy::Static, &[(100.0, 1_000.0)], 0.0);
        assert_eq!(means, [0.0]);
        assert_eq!(declined, 0.0);
    }
}
