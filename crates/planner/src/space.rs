//! The planner's search space: the option lists a
//! [`CandidateDeployment`] indexes into, deterministic enumeration of
//! every valid candidate, and the seeded mutation operator the local
//! search uses.

use junkyard_devices::device::DeviceSpec;
use junkyard_fleet::routing::RoutingPolicy;
use junkyard_fleet::site::GridRegion;
use junkyard_microsim::sweep::decorrelate_seed;

use crate::candidate::CandidateDeployment;

/// One provisioning option for a site: a named recipe of device slots
/// drawn from the junkyard catalog, each with a per-slot serving
/// capacity. An *empty* option means the region hosts no cloudlet.
#[derive(Debug, Clone)]
pub struct CohortOption {
    label: String,
    /// `(model, per-slot capacity in requests/second, slot count)`.
    slots: Vec<(DeviceSpec, f64, usize)>,
}

impl CohortOption {
    /// An empty option: the region hosts nothing.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            label: "(none)".to_owned(),
            slots: Vec::new(),
        }
    }

    /// A uniform cohort of `count` devices of one model.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or the per-slot capacity is not
    /// strictly positive.
    #[must_use]
    pub fn uniform(device: DeviceSpec, count: usize, per_slot_qps: f64) -> Self {
        assert!(count > 0, "a uniform cohort needs at least one device");
        let label = format!("{count}x {}", device.name());
        Self::mixed(label, vec![(device, per_slot_qps, count)])
    }

    /// A heterogeneous cohort from explicit `(model, per-slot capacity,
    /// count)` slots.
    ///
    /// # Panics
    ///
    /// Panics if any slot has a zero count or a non-positive capacity.
    #[must_use]
    pub fn mixed(label: impl Into<String>, slots: Vec<(DeviceSpec, f64, usize)>) -> Self {
        for (device, qps, count) in &slots {
            assert!(*count > 0, "{}: slot count must be positive", device.name());
            assert!(
                *qps > 0.0,
                "{}: slot capacity must be positive",
                device.name()
            );
        }
        Self {
            label: label.into(),
            slots,
        }
    }

    /// Display label for reports.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The `(model, per-slot capacity, count)` slots of the recipe.
    #[must_use]
    pub fn slots(&self) -> &[(DeviceSpec, f64, usize)] {
        &self.slots
    }

    /// Whether the option provisions nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total devices the option provisions.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.slots.iter().map(|(_, _, count)| count).sum()
    }

    /// Nominal serving capacity of the option, requests/second.
    #[must_use]
    pub fn capacity_qps(&self) -> f64 {
        self.slots
            .iter()
            .map(|(_, qps, count)| qps * *count as f64)
            .sum()
    }
}

/// The full search space: per-region cohort options plus the fleet-wide
/// policy dimensions. Every dimension is an explicit, ordered option
/// list, so enumeration and mutation are deterministic.
#[derive(Debug, Clone)]
pub struct PlannerSpace {
    cohorts: Vec<CohortOption>,
    regions: Vec<GridRegion>,
    routings: Vec<RoutingPolicy>,
    charge_floors: Vec<f64>,
    refill_lags: Vec<usize>,
    fallback_shares: Vec<f64>,
}

impl PlannerSpace {
    /// Creates a space over `cohorts` × `regions` with default policy
    /// dimensions: static and carbon-aware routing, the paper's 25 %
    /// battery floor, a one-week junkyard refill lag and no leased
    /// fallback.
    ///
    /// # Panics
    ///
    /// Panics if either list is empty.
    #[must_use]
    pub fn new(cohorts: Vec<CohortOption>, regions: Vec<GridRegion>) -> Self {
        assert!(
            !cohorts.is_empty(),
            "the space needs at least one cohort option"
        );
        assert!(!regions.is_empty(), "the space needs at least one region");
        Self {
            cohorts,
            regions,
            routings: vec![RoutingPolicy::Static, RoutingPolicy::CarbonAware],
            charge_floors: vec![0.25],
            refill_lags: vec![7],
            fallback_shares: vec![0.0],
        }
    }

    /// Overrides the routing-policy options.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    #[must_use]
    pub fn routings(mut self, routings: Vec<RoutingPolicy>) -> Self {
        assert!(!routings.is_empty(), "need at least one routing policy");
        self.routings = routings;
        self
    }

    /// Overrides the smart-charging battery-floor options (the
    /// unconditional-charge threshold of the Section 4.3 policy).
    ///
    /// # Panics
    ///
    /// Panics if empty or any floor is outside `[0, 1]`.
    #[must_use]
    pub fn charge_floors(mut self, floors: Vec<f64>) -> Self {
        assert!(!floors.is_empty(), "need at least one charge floor");
        for floor in &floors {
            assert!(
                (0.0..=1.0).contains(floor),
                "charge floor must be in [0, 1]"
            );
        }
        self.charge_floors = floors;
        self
    }

    /// Overrides the junkyard refill-lag options, in whole days.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    #[must_use]
    pub fn refill_lags(mut self, lags: Vec<usize>) -> Self {
        assert!(!lags.is_empty(), "need at least one refill lag");
        self.refill_lags = lags;
        self
    }

    /// Overrides the leased-fallback share options: the fraction of the
    /// registered leased site's capacity rented alongside the cloudlets.
    ///
    /// # Panics
    ///
    /// Panics if empty or any share is outside `[0, 1]`.
    #[must_use]
    pub fn fallback_shares(mut self, shares: Vec<f64>) -> Self {
        assert!(!shares.is_empty(), "need at least one fallback share");
        for share in &shares {
            assert!(
                (0.0..=1.0).contains(share),
                "fallback share must be in [0, 1]"
            );
        }
        self.fallback_shares = shares;
        self
    }

    /// The cohort options.
    #[must_use]
    pub fn cohort_options(&self) -> &[CohortOption] {
        &self.cohorts
    }

    /// The grid regions, in site order.
    #[must_use]
    pub fn regions(&self) -> &[GridRegion] {
        &self.regions
    }

    /// The cohort option a candidate assigns to `region`.
    #[must_use]
    pub fn cohort_of(&self, candidate: &CandidateDeployment, region: usize) -> &CohortOption {
        &self.cohorts[candidate.site_cohorts()[region]]
    }

    /// The routing policy a candidate selects.
    #[must_use]
    pub fn routing_of(&self, candidate: &CandidateDeployment) -> RoutingPolicy {
        self.routings[candidate.routing()]
    }

    /// The battery floor a candidate selects.
    #[must_use]
    pub fn charge_floor_of(&self, candidate: &CandidateDeployment) -> f64 {
        self.charge_floors[candidate.charge_floor()]
    }

    /// The refill lag a candidate selects, days.
    #[must_use]
    pub fn refill_lag_of(&self, candidate: &CandidateDeployment) -> usize {
        self.refill_lags[candidate.refill_lag()]
    }

    /// The leased-fallback share a candidate selects.
    #[must_use]
    pub fn fallback_share_of(&self, candidate: &CandidateDeployment) -> f64 {
        self.fallback_shares[candidate.fallback()]
    }

    /// Total phones a candidate provisions across its cohort sites (the
    /// frontier's fleet-size objective; leased capacity is not counted).
    #[must_use]
    pub fn total_devices(&self, candidate: &CandidateDeployment) -> usize {
        (0..self.regions.len())
            .map(|r| self.cohort_of(candidate, r).device_count())
            .sum()
    }

    /// Nominal cohort serving capacity of a candidate, requests/second
    /// (leased fallback excluded).
    #[must_use]
    pub fn cohort_capacity_qps(&self, candidate: &CandidateDeployment) -> f64 {
        (0..self.regions.len())
            .map(|r| self.cohort_of(candidate, r).capacity_qps())
            .sum()
    }

    /// Whether a candidate can serve anything at all: at least one
    /// non-empty cohort, or a non-zero leased fallback share.
    #[must_use]
    pub fn is_valid(&self, candidate: &CandidateDeployment) -> bool {
        self.contains(candidate)
            && (self.cohort_capacity_qps(candidate) > 0.0
                || self.fallback_share_of(candidate) > 0.0)
    }

    /// Whether every index of the candidate is in range for this space.
    #[must_use]
    pub fn contains(&self, candidate: &CandidateDeployment) -> bool {
        candidate.site_cohorts().len() == self.regions.len()
            && candidate
                .site_cohorts()
                .iter()
                .all(|&c| c < self.cohorts.len())
            && candidate.routing() < self.routings.len()
            && candidate.charge_floor() < self.charge_floors.len()
            && candidate.refill_lag() < self.refill_lags.len()
            && candidate.fallback() < self.fallback_shares.len()
    }

    /// Number of points in the cartesian product, valid or not.
    #[must_use]
    pub fn cardinality(&self) -> usize {
        self.cohorts
            .len()
            .pow(u32::try_from(self.regions.len()).expect("region count fits u32"))
            * self.routings.len()
            * self.charge_floors.len()
            * self.refill_lags.len()
            * self.fallback_shares.len()
    }

    /// Every valid candidate, in a fixed mixed-radix order (region
    /// cohorts vary slowest, fallback share fastest) — the deterministic
    /// starting population of the search.
    #[must_use]
    pub fn enumerate(&self) -> Vec<CandidateDeployment> {
        let regions = self.regions.len();
        let radices: Vec<usize> = (0..regions)
            .map(|_| self.cohorts.len())
            .chain([
                self.routings.len(),
                self.charge_floors.len(),
                self.refill_lags.len(),
                self.fallback_shares.len(),
            ])
            .collect();
        let mut out = Vec::new();
        for mut index in 0..self.cardinality() {
            let mut digits = vec![0usize; radices.len()];
            for (digit, radix) in digits.iter_mut().zip(&radices).rev() {
                *digit = index % radix;
                index /= radix;
            }
            let candidate = CandidateDeployment::new(
                digits[..regions].to_vec(),
                digits[regions],
                digits[regions + 1],
                digits[regions + 2],
                digits[regions + 3],
            );
            if self.is_valid(&candidate) {
                out.push(candidate);
            }
        }
        out
    }

    /// Derives a neighbouring valid candidate by re-drawing exactly one
    /// dimension, deterministically from `seed` (mixed through
    /// [`decorrelate_seed`]). Single-option dimensions are skipped; if no
    /// mutable dimension yields a valid neighbour within a bounded number
    /// of attempts (or the space is a single point), the candidate is
    /// returned unchanged.
    #[must_use]
    pub fn mutate(&self, candidate: &CandidateDeployment, seed: u64) -> CandidateDeployment {
        let regions = self.regions.len();
        let dims = regions + 4;
        for attempt in 0..16u64 {
            let draw = decorrelate_seed(seed, attempt * 2 + 1);
            let dim = (draw % dims as u64) as usize;
            let (len, current) = if dim < regions {
                (self.cohorts.len(), candidate.site_cohorts()[dim])
            } else {
                match dim - regions {
                    0 => (self.routings.len(), candidate.routing()),
                    1 => (self.charge_floors.len(), candidate.charge_floor()),
                    2 => (self.refill_lags.len(), candidate.refill_lag()),
                    _ => (self.fallback_shares.len(), candidate.fallback()),
                }
            };
            if len < 2 {
                continue;
            }
            // Draw from the other options so the neighbour always moves.
            let pick = (decorrelate_seed(seed, attempt * 2 + 2) % (len as u64 - 1)) as usize;
            let next = if pick >= current { pick + 1 } else { pick };
            let mutated = if dim < regions {
                candidate.clone().with_site_cohort(dim, next)
            } else {
                match dim - regions {
                    0 => candidate.clone().with_routing(next),
                    1 => candidate.clone().with_charge_floor(next),
                    2 => candidate.clone().with_refill_lag(next),
                    _ => candidate.clone().with_fallback(next),
                }
            };
            if self.is_valid(&mutated) {
                return mutated;
            }
        }
        candidate.clone()
    }

    /// Human-readable one-line description of a candidate.
    #[must_use]
    pub fn describe(&self, candidate: &CandidateDeployment) -> String {
        let mut parts: Vec<String> = self
            .regions
            .iter()
            .enumerate()
            .map(|(r, region)| {
                format!("{}={}", region.name(), self.cohort_of(candidate, r).label())
            })
            .collect();
        parts.push(self.routing_of(candidate).label().to_owned());
        parts.push(format!(
            "floor {:.0}%",
            self.charge_floor_of(candidate) * 100.0
        ));
        parts.push(format!("lag {}d", self.refill_lag_of(candidate)));
        let share = self.fallback_share_of(candidate);
        if share > 0.0 {
            parts.push(format!("leased {:.0}%", share * 100.0));
        }
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{flat_region, pixel_option};

    fn small_space() -> PlannerSpace {
        PlannerSpace::new(
            vec![CohortOption::empty(), pixel_option(2), pixel_option(4)],
            vec![flat_region("west", 100.0), flat_region("east", 400.0)],
        )
        .fallback_shares(vec![0.0, 0.5])
    }

    #[test]
    fn enumerate_skips_only_the_unservable_candidates() {
        let space = small_space();
        // 3^2 cohort combos × 2 routings × 1 × 1 × 2 fallbacks = 36 raw
        // points; the two (empty, empty, fallback 0) points are invalid.
        assert_eq!(space.cardinality(), 36);
        let population = space.enumerate();
        assert_eq!(population.len(), 34);
        assert!(population.iter().all(|c| space.is_valid(c)));
        // Enumeration order is stable.
        assert_eq!(population, space.enumerate());
        // Fingerprints are unique across the population.
        let mut prints: Vec<u64> = population
            .iter()
            .map(CandidateDeployment::fingerprint)
            .collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), population.len());
    }

    #[test]
    fn mutation_moves_one_dimension_and_stays_valid() {
        let space = small_space();
        let base = CandidateDeployment::new(vec![1, 1], 0, 0, 0, 0);
        let mut moved = 0;
        for seed in 0..50u64 {
            let mutated = space.mutate(&base, seed);
            assert!(space.is_valid(&mutated));
            assert_eq!(space.mutate(&base, seed), mutated, "deterministic per seed");
            if mutated != base {
                moved += 1;
                // Exactly one dimension differs.
                let mut diffs = 0;
                for r in 0..2 {
                    diffs += usize::from(mutated.site_cohorts()[r] != base.site_cohorts()[r]);
                }
                diffs += usize::from(mutated.routing() != base.routing());
                diffs += usize::from(mutated.charge_floor() != base.charge_floor());
                diffs += usize::from(mutated.refill_lag() != base.refill_lag());
                diffs += usize::from(mutated.fallback() != base.fallback());
                assert_eq!(diffs, 1, "{mutated:?}");
            }
        }
        assert!(moved > 40, "mutations almost always move: {moved}/50");
    }

    #[test]
    fn single_point_spaces_mutate_to_themselves() {
        let space = PlannerSpace::new(vec![pixel_option(2)], vec![flat_region("only", 200.0)])
            .routings(vec![RoutingPolicy::Static])
            .charge_floors(vec![0.25])
            .refill_lags(vec![7])
            .fallback_shares(vec![0.0]);
        let only = &space.enumerate()[0];
        assert_eq!(space.mutate(only, 3), *only);
    }

    #[test]
    fn describe_names_regions_and_policies() {
        let space = small_space();
        let candidate = CandidateDeployment::new(vec![2, 0], 1, 0, 0, 1);
        let text = space.describe(&candidate);
        assert!(text.contains("west=4x Pixel 3A"), "{text}");
        assert!(text.contains("east=(none)"), "{text}");
        assert!(text.contains("carbon-aware"), "{text}");
        assert!(text.contains("leased 50%"), "{text}");
    }
}
