//! The typed point of the planner's search space: which cohort each grid
//! region hosts, how traffic is routed, how batteries are charged, how
//! failed devices are refilled and how much leased datacenter capacity
//! backs the fleet up.
//!
//! A candidate stores *indices* into a [`PlannerSpace`]'s option lists
//! rather than the options themselves, so candidates are tiny, trivially
//! comparable, and carry a stable [`fingerprint`](CandidateDeployment::fingerprint)
//! the evaluation cache and the deterministic search both key on.
//!
//! [`PlannerSpace`]: crate::space::PlannerSpace

/// One fully-specified deployment: a cohort choice per grid region plus
/// the fleet-wide policy knobs, all as indices into the owning
/// [`PlannerSpace`](crate::space::PlannerSpace).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CandidateDeployment {
    /// Cohort-option index per region, in the space's region order.
    site_cohorts: Vec<usize>,
    /// Routing-policy index.
    routing: usize,
    /// Smart-charging battery-floor index.
    charge_floor: usize,
    /// Junkyard refill-lag index.
    refill_lag: usize,
    /// Leased-fallback share index.
    fallback: usize,
}

impl CandidateDeployment {
    /// Assembles a candidate from its option indices. Bounds against a
    /// concrete space are checked by
    /// [`PlannerSpace::contains`](crate::space::PlannerSpace::contains).
    ///
    /// # Panics
    ///
    /// Panics if no region assignment is given.
    #[must_use]
    pub fn new(
        site_cohorts: Vec<usize>,
        routing: usize,
        charge_floor: usize,
        refill_lag: usize,
        fallback: usize,
    ) -> Self {
        assert!(
            !site_cohorts.is_empty(),
            "a candidate needs at least one region assignment"
        );
        Self {
            site_cohorts,
            routing,
            charge_floor,
            refill_lag,
            fallback,
        }
    }

    /// Cohort-option index per region.
    #[must_use]
    pub fn site_cohorts(&self) -> &[usize] {
        &self.site_cohorts
    }

    /// Routing-policy index.
    #[must_use]
    pub fn routing(&self) -> usize {
        self.routing
    }

    /// Smart-charging battery-floor index.
    #[must_use]
    pub fn charge_floor(&self) -> usize {
        self.charge_floor
    }

    /// Junkyard refill-lag index.
    #[must_use]
    pub fn refill_lag(&self) -> usize {
        self.refill_lag
    }

    /// Leased-fallback share index.
    #[must_use]
    pub fn fallback(&self) -> usize {
        self.fallback
    }

    /// Replaces the cohort choice of one region (used by mutation).
    #[must_use]
    pub(crate) fn with_site_cohort(mut self, region: usize, cohort: usize) -> Self {
        self.site_cohorts[region] = cohort;
        self
    }

    /// Replaces the routing-policy index.
    #[must_use]
    pub(crate) fn with_routing(mut self, routing: usize) -> Self {
        self.routing = routing;
        self
    }

    /// Replaces the battery-floor index.
    #[must_use]
    pub(crate) fn with_charge_floor(mut self, floor: usize) -> Self {
        self.charge_floor = floor;
        self
    }

    /// Replaces the refill-lag index.
    #[must_use]
    pub(crate) fn with_refill_lag(mut self, lag: usize) -> Self {
        self.refill_lag = lag;
        self
    }

    /// Replaces the fallback-share index.
    #[must_use]
    pub(crate) fn with_fallback(mut self, fallback: usize) -> Self {
        self.fallback = fallback;
        self
    }

    /// A stable 64-bit fingerprint of the candidate: an FNV-1a-style fold
    /// over every index, identical across runs, platforms and worker
    /// counts. The evaluation cache keys on `(fingerprint, fidelity)`, so
    /// a mutation that revisits a previously-scored candidate costs
    /// nothing, and the search uses it as the final ranking tie-breaker
    /// so orderings never depend on evaluation timing.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |value: u64| {
            hash ^= value.wrapping_add(0x9e37_79b9_7f4a_7c15);
            hash = hash.wrapping_mul(PRIME);
        };
        eat(self.site_cohorts.len() as u64);
        for &cohort in &self.site_cohorts {
            eat(cohort as u64);
        }
        eat(self.routing as u64);
        eat(self.charge_floor as u64);
        eat(self.refill_lag as u64);
        eat(self.fallback as u64);
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_and_field_sensitive() {
        let base = CandidateDeployment::new(vec![1, 2], 0, 1, 0, 2);
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        // Every field perturbation moves the fingerprint.
        let variants = [
            CandidateDeployment::new(vec![2, 1], 0, 1, 0, 2),
            CandidateDeployment::new(vec![1, 2], 1, 1, 0, 2),
            CandidateDeployment::new(vec![1, 2], 0, 0, 0, 2),
            CandidateDeployment::new(vec![1, 2], 0, 1, 1, 2),
            CandidateDeployment::new(vec![1, 2], 0, 1, 0, 0),
            CandidateDeployment::new(vec![1, 2, 0], 0, 1, 0, 2),
        ];
        for variant in variants {
            assert_ne!(base.fingerprint(), variant.fingerprint(), "{variant:?}");
        }
    }

    #[test]
    fn swapped_regions_are_distinct_candidates() {
        // Position matters: cohort 1 in region 0 is not cohort 1 in
        // region 1 (the regions have different grids).
        let a = CandidateDeployment::new(vec![0, 1], 0, 0, 0, 0);
        let b = CandidateDeployment::new(vec![1, 0], 0, 0, 0, 0);
        assert_ne!(a, b);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn empty_region_assignment_panics() {
        let _ = CandidateDeployment::new(vec![], 0, 0, 0, 0);
    }
}
