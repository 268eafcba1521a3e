//! The planner study: *what should a junkyard-cloudlet operator deploy?*
//!
//! The lifecycle study fixes one hand-built answer (six Pixel 3A and
//! four Nexus 4 per cloudlet, two CAISO-like regions, carbon-aware
//! routing) and one comparison point (a rented c5.9xlarge). This study
//! turns the question around: it hands the planner the same demand, the
//! same two-region grid, the same device catalog and the same SLO, and
//! lets the search engine pick the deployment — Pixel 3A and Nexus 4
//! cohort mixes per region, routing policy, smart-charging floor,
//! junkyard refill lag and an optional leased c5.9xlarge fallback share.
//!
//! The hand-built deployment is itself a point of the search space and
//! is *pinned* into the search (it bypasses the pre-screen and survives
//! every halving rung), so the planner's argmin can only match or beat
//! it whenever the hand-built point is SLO-feasible — by construction,
//! not by luck of the coarse rungs. The study additionally scores the
//! hand-built candidate through the same evaluator and cache at the
//! same final fidelity to report the comparison.

use junkyard_carbon::units::TimeSpan;
use junkyard_cluster::Peripheral;
use junkyard_devices::catalog;
use junkyard_fleet::routing::RoutingPolicy;
use junkyard_fleet::site::GridRegion;
use junkyard_microsim::app::{social_network, SN_COMPOSE_POST};
use junkyard_microsim::network::NetworkModel;
use junkyard_planner::{
    search, CandidateDeployment, CohortOption, EvalCache, Fidelity, FleetEvaluator,
    PlannedDeployment, PlannerSpace, SearchConfig, SearchOutcome, Slo,
};

use crate::deployments::{c5_datacenter_site, DeploymentError};
use crate::lifecycle_study::{
    office_day_demand, LifecycleStudy, MEAN_DAYS_BETWEEN_FAILURES, NEXUSES_PER_SITE,
    PIXELS_PER_SITE,
};
use crate::report::Table;

/// Assumed cloudlet service lifetime the install embodied carbon is
/// amortised over when scoring candidates — the lifecycle study's quick
/// horizon, so a planner score estimates that study's lifetime-amortised
/// gCO2e/request from a few simulated days.
const SERVICE_LIFETIME_YEARS: f64 = 5.0;
/// Index of the hand-built 6-Pixel + 4-Nexus option in the cohort list.
const HAND_BUILT_COHORT: usize = 1;
/// Index of the carbon-aware policy in the routing list.
const CARBON_AWARE_ROUTING: usize = 1;

/// The study's SLO. The carbon-aware router deliberately fills the
/// cleanest region to 100 % of its *paper-sustainable* capacity, which
/// by definition parks that site at the Figure 7 latency knee — so the
/// study grants ~50 % headroom over the knee criterion (median 100 ms,
/// tail 200 ms) before a deployment counts as violating, and tolerates
/// 1 % shed for transient outage days.
#[must_use]
fn study_slo() -> Slo {
    Slo::new(150.0, 250.0).shed_ceiling(0.01)
}

/// Configuration of the provisioning-search study.
#[derive(Debug, Clone)]
pub struct PlannerStudy {
    seed: u64,
    parallelism: Option<usize>,
    rungs: Vec<Fidelity>,
    rich_space: bool,
}

impl PlannerStudy {
    /// The full-scale study: the lifecycle study's demand and grids, the
    /// knee-headroom SLO (median 150 ms, tail 250 ms, 1 % shed), a
    /// three-rung fidelity ladder ending at four simulated weeks, and the
    /// rich search space (five cohort options, two charging floors, two
    /// refill lags, three fallback shares).
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            seed: 42,
            parallelism: None,
            rungs: vec![Fidelity::coarse(), Fidelity::medium(), Fidelity::fine()],
            rich_space: true,
        }
    }

    /// A reduced study for quick runs and tests: the quick lifecycle
    /// study's coarser grid traces, a two-rung ladder ending at four
    /// simulated days and a smaller space.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            seed: 42,
            parallelism: None,
            rungs: vec![Fidelity::coarse(), Fidelity::new(4, 2, 1.0, 0.0)],
            rich_space: false,
        }
    }

    /// Overrides the random seed (grid traces, workloads, failures and
    /// mutation draws all derive from it).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the worker threads of the saturation screen and the search;
    /// `1` runs both on the caller's thread.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        assert!(workers > 0, "the study needs at least one worker");
        self.parallelism = Some(workers);
        self
    }

    /// The SLO the search enforces.
    #[must_use]
    pub fn slo_bounds(&self) -> Slo {
        study_slo()
    }

    /// The cohort options of the search space. Index
    /// [`HAND_BUILT_COHORT`] is always the lifecycle study's hand-built
    /// 6-Pixel + 4-Nexus recipe.
    fn cohort_options(&self) -> Vec<CohortOption> {
        let pixel = catalog::pixel_3a();
        let nexus = catalog::nexus_4();
        let (pixel_qps, nexus_qps) = LifecycleStudy::slot_capacities();
        let hand_built = CohortOption::mixed(
            format!("{PIXELS_PER_SITE}x Pixel 3A + {NEXUSES_PER_SITE}x Nexus 4"),
            vec![
                (pixel.clone(), pixel_qps, PIXELS_PER_SITE),
                (nexus.clone(), nexus_qps, NEXUSES_PER_SITE),
            ],
        );
        let mut options = vec![
            CohortOption::empty(),
            hand_built,
            CohortOption::uniform(pixel.clone(), 10, pixel_qps),
        ];
        if self.rich_space {
            options.push(CohortOption::uniform(pixel, 14, pixel_qps));
            options.push(CohortOption::mixed(
                "8x Pixel 3A + 6x Nexus 4",
                vec![(catalog::pixel_3a(), pixel_qps, 8), (nexus, nexus_qps, 6)],
            ));
        }
        options
    }

    /// The search space: the two-region CAISO setup with per-region
    /// cohort choices and the fleet-wide policy dimensions.
    #[must_use]
    pub fn space(&self) -> PlannerSpace {
        let lifecycle = self.lifecycle_twin();
        let (west, east) = lifecycle.two_region_traces();
        let regions = vec![GridRegion::new("west", west), GridRegion::new("east", east)];
        let mut space = PlannerSpace::new(self.cohort_options(), regions)
            .routings(vec![RoutingPolicy::Static, RoutingPolicy::CarbonAware]);
        if self.rich_space {
            space = space
                .charge_floors(vec![0.25, 0.4])
                .refill_lags(vec![7, 21])
                .fallback_shares(vec![0.0, 0.5, 1.0]);
        } else {
            space = space.fallback_shares(vec![0.0, 1.0]);
        }
        space
    }

    /// A [`LifecycleStudy`] carrying the same seed and trace fidelity,
    /// used to derive the shared two-region traces.
    fn lifecycle_twin(&self) -> LifecycleStudy {
        // The lifecycle study's quick/paper split matches ours on trace
        // fidelity; only the seed needs forwarding.
        let twin = if self.rich_space {
            LifecycleStudy::paper_scale()
        } else {
            LifecycleStudy::quick()
        };
        twin.seed(self.seed)
    }

    /// The evaluator: candidates serve the compose-post demand over the
    /// office-day curve, with the c5.9xlarge registered as the leased
    /// fallback and the saturation screen run on the study's worker cap.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if the c5.9xlarge site cannot be
    /// assembled or a screen sweep fails to simulate.
    pub fn evaluator(&self) -> Result<FleetEvaluator, DeploymentError> {
        let fan = Peripheral::server_fan(1);
        FleetEvaluator::new(
            self.space(),
            social_network(),
            NetworkModel::phone_wifi(),
            office_day_demand(),
            self.seed,
        )
        .request_type(SN_COMPOSE_POST)
        .leased(c5_datacenter_site("leased-c5")?)
        .site_overhead(fan.total_power(), fan.total_embodied())
        .failures(MEAN_DAYS_BETWEEN_FAILURES)
        .amortize_install(TimeSpan::from_years(SERVICE_LIFETIME_YEARS))
        .with_saturation_screen(self.parallelism)
        .map_err(DeploymentError::Sim)
    }

    /// The hand-built lifecycle deployment as a candidate: the 6-Pixel +
    /// 4-Nexus cohort in both regions under carbon-aware routing with
    /// the paper charging floor, the one-week refill lag and no leased
    /// fallback.
    #[must_use]
    pub fn baseline_candidate(&self) -> CandidateDeployment {
        CandidateDeployment::new(
            vec![HAND_BUILT_COHORT, HAND_BUILT_COHORT],
            CARBON_AWARE_ROUTING,
            0,
            0,
            0,
        )
    }

    fn search_config(&self) -> SearchConfig {
        // Pinning the hand-built baseline guarantees it is scored at the
        // final fidelity inside the search, so "the argmin matches or
        // beats a feasible baseline" holds by construction instead of
        // depending on the coarse rungs ranking it into the survivors.
        let mut config = SearchConfig::new()
            .seed(self.seed)
            .rungs(self.rungs.clone())
            .local_search(4, 2, 2)
            .pin(self.baseline_candidate());
        if let Some(workers) = self.parallelism {
            config = config.parallelism(workers);
        }
        config
    }

    /// Runs the search and scores the hand-built baseline through the
    /// same evaluator and cache at the same final fidelity.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if the evaluator cannot be built.
    ///
    /// # Panics
    ///
    /// Panics if the hand-built baseline itself fails to build or
    /// simulate — that would be a defect, not a search outcome.
    pub fn run(&self) -> Result<PlannerStudyResult, DeploymentError> {
        let evaluator = self.evaluator()?;
        let config = self.search_config();
        let mut cache = EvalCache::new();
        let outcome = search(
            evaluator.space(),
            &evaluator,
            &study_slo(),
            &config,
            &mut cache,
        );

        let baseline_candidate = self.baseline_candidate();
        let baseline_evaluation = cache
            .score(
                &evaluator,
                std::slice::from_ref(&baseline_candidate),
                config.final_fidelity(),
                1,
            )
            .pop()
            .expect("one baseline result")
            .expect("the hand-built lifecycle deployment builds and simulates");
        let baseline = PlannedDeployment::from_parts(
            baseline_candidate.clone(),
            baseline_evaluation,
            evaluator.space().describe(&baseline_candidate),
        );

        Ok(PlannerStudyResult { outcome, baseline })
    }
}

/// Result of the planner study: the search outcome plus the hand-built
/// baseline scored under identical conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerStudyResult {
    outcome: SearchOutcome,
    baseline: PlannedDeployment,
}

impl PlannerStudyResult {
    /// The full search outcome (frontier, argmin, bookkeeping).
    #[must_use]
    pub fn outcome(&self) -> &SearchOutcome {
        &self.outcome
    }

    /// The carbon argmin among SLO-feasible deployments.
    #[must_use]
    pub fn best(&self) -> Option<&PlannedDeployment> {
        self.outcome.best()
    }

    /// The hand-built lifecycle deployment scored at the same fidelity.
    #[must_use]
    pub fn baseline(&self) -> &PlannedDeployment {
        &self.baseline
    }

    /// The SLO the search enforced.
    #[must_use]
    pub fn slo(&self) -> Slo {
        study_slo()
    }

    /// Carbon-per-request improvement of the planner's argmin over the
    /// hand-built baseline, percent (positive means the planner won;
    /// zero means it rediscovered the hand-built point).
    ///
    /// # Panics
    ///
    /// Panics if the search found no feasible deployment.
    #[must_use]
    pub fn improvement_percent(&self) -> f64 {
        let best = self
            .best()
            .expect("the search found a feasible deployment")
            .evaluation()
            .grams_per_request()
            .expect("feasible deployments served requests");
        let baseline = self
            .baseline
            .evaluation()
            .grams_per_request()
            .expect("the baseline served requests");
        (baseline - best) / baseline * 100.0
    }

    /// Whether the planner's argmin emits no more carbon per request
    /// than the hand-built baseline.
    #[must_use]
    pub fn matches_or_beats_baseline(&self) -> bool {
        match self.best() {
            Some(best) => {
                best.evaluation()
                    .grams_per_request()
                    .unwrap_or(f64::INFINITY)
                    <= self
                        .baseline
                        .evaluation()
                        .grams_per_request()
                        .unwrap_or(f64::INFINITY)
                        + 1e-12
            }
            None => false,
        }
    }

    /// The frontier as a report table (plus the baseline as the last
    /// row for comparison).
    #[must_use]
    pub fn frontier_table(&self) -> Table {
        let mut table = Table::new(
            "planner — SLO-feasible Pareto frontier (gCO2e/request vs p99 vs fleet size)",
            vec![
                "deployment".into(),
                "phones".into(),
                "mgCO2e/request".into(),
                "p99 (ms)".into(),
                "tail (ms)".into(),
                "shed %".into(),
            ],
        );
        for planned in self.outcome.frontier() {
            table.push_row(Self::row(planned));
        }
        let mut baseline_row = Self::row(&self.baseline);
        baseline_row[0] = format!("[hand-built] {}", baseline_row[0]);
        table.push_row(baseline_row);
        table
    }

    fn row(planned: &PlannedDeployment) -> Vec<String> {
        let evaluation = planned.evaluation();
        vec![
            planned.label().to_owned(),
            evaluation.devices().to_string(),
            format!(
                "{:.4}",
                evaluation.grams_per_request().unwrap_or(0.0) * 1_000.0
            ),
            format!("{:.1}", evaluation.worst_p99_ms()),
            format!("{:.1}", evaluation.worst_tail_ms()),
            format!("{:.2}", evaluation.shed_fraction() * 100.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_matches_or_beats_the_hand_built_cloudlet() {
        let result = PlannerStudy::quick().run().unwrap();
        // The hand-built deployment is a point of the space, so a
        // feasible baseline can only be matched or beaten.
        assert!(
            result.baseline.evaluation().meets(&result.slo()),
            "the hand-built baseline violates the SLO: {:?}",
            result.baseline.evaluation()
        );
        assert!(result.matches_or_beats_baseline());
        assert!(result.improvement_percent() >= 0.0);
        let best = result.best().unwrap();
        assert!(best.evaluation().grams_per_request().unwrap() > 0.0);
    }

    #[test]
    fn every_frontier_point_meets_the_slo() {
        let result = PlannerStudy::quick().run().unwrap();
        assert!(!result.outcome().frontier().is_empty());
        for planned in result.outcome().frontier() {
            assert!(
                planned.evaluation().meets(&result.slo()),
                "{} violates the SLO",
                planned.label()
            );
        }
        // The search recorded cache traffic (mutation rounds revisit
        // their elites by construction).
        assert!(result.outcome().cache_hits() > 0);
    }

    #[test]
    fn study_is_deterministic_across_worker_counts() {
        let serial = PlannerStudy::quick().parallelism(1).run().unwrap();
        let threaded = PlannerStudy::quick().parallelism(4).run().unwrap();
        assert_eq!(serial, threaded);
        // The search's counts are taken between batches, so they count
        // the work, not the schedule. At seed 42 it measures 102 distinct
        // slices, where scoring each candidate on its own table measured
        // 152.
        let outcome = serial.outcome();
        assert_eq!(outcome.slices_measured(), 102);
        assert_eq!(outcome.candidates_enumerated(), 34);
        assert_eq!(outcome.screened_out(), 4);
        assert_eq!(outcome.rung_populations(), [30, 15]);
        assert_eq!(outcome.fresh_evaluations(), 48);
        assert_eq!(outcome.cache_hits(), 21);
        assert_eq!(outcome.cache_misses(), 48);
    }

    #[test]
    fn saturation_screen_is_the_same_at_any_worker_count() {
        use junkyard_planner::Evaluator;
        let study = PlannerStudy::quick();
        let serial = study.clone().parallelism(1).evaluator().unwrap();
        let threaded = study.clone().parallelism(4).evaluator().unwrap();
        let slo = study.slo_bounds();
        let candidates = study.space().enumerate();
        assert_eq!(candidates.len(), 34);
        let mut over_ceiling = 0;
        for candidate in &candidates {
            let one = serial.projected_shed(candidate, &slo);
            let four = threaded.projected_shed(candidate, &slo);
            assert_eq!(
                one.map(f64::to_bits),
                four.map(f64::to_bits),
                "{candidate:?}"
            );
            let shed = one.expect("the screen projects every candidate's shed");
            over_ceiling += usize::from(shed > slo.max_shed_fraction());
        }
        assert!(over_ceiling > 0, "the screen would prune nothing");
    }

    #[test]
    fn frontier_table_includes_the_baseline_row() {
        let result = PlannerStudy::quick().run().unwrap();
        let table = result.frontier_table();
        assert_eq!(table.rows().len(), result.outcome().frontier().len() + 1);
        assert!(table.rows().last().unwrap()[0].starts_with("[hand-built]"));
    }
}
