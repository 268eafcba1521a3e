//! The concrete [`Evaluator`]: candidates become [`LifecycleSim`] runs
//! over the compiled microsim engine, a batch of candidates one
//! [`LifecycleSim::run_batch`].
//!
//! Each cohort option is assembled exactly like the hand-built lifecycle
//! deployments — catalog devices become microsim nodes and
//! [`CohortDevice::from_catalog`] slots, the one slot recipe both use —
//! so a planner score and a hand-built study score are directly
//! comparable. Each option's simulation is compiled once and shared by
//! every candidate site built from it. A candidate's leased fallback is
//! the registered [`FleetSite`] rented at the candidate's share
//! ([`FleetSite::scaled`], which shares the registered site's compiled
//! simulation) and run as a leased lifecycle site. The optional
//! saturation screen sweeps every cohort option and the leased site once
//! up front, all their load points in one [`SweepConfig::run_batch`]
//! fan-out. It backs [`Evaluator::projected_shed`]: the demand beyond a
//! candidate's [`LatencyCurve::max_sustainable_qps`] (under the SLO's
//! latency bounds) as a share of the horizon's traffic, so the search
//! prunes a candidate that would shed more than the SLO's ceiling allows
//! before any lifecycle run is paid.

use std::sync::Arc;

use junkyard_battery::charging::SmartChargePolicy;
use junkyard_carbon::units::{GramsCo2e, TimeSpan, Watts};
use junkyard_fleet::lifecycle::{CohortDevice, LifecycleSim, LifecycleSite, MeasuredSlices};
use junkyard_fleet::schedule::DiurnalSchedule;
use junkyard_fleet::site::{FleetSite, GridRegion};
use junkyard_microsim::app::Application;
use junkyard_microsim::compiled::CompiledSim;
use junkyard_microsim::fanout::fan_out;
use junkyard_microsim::network::NetworkModel;
use junkyard_microsim::node::NodeSpec;
use junkyard_microsim::placement::Placement;
use junkyard_microsim::sim::{SimError, Simulation};
use junkyard_microsim::sweep::{decorrelate_seed, LatencyCurve, SweepConfig};

use crate::candidate::CandidateDeployment;
use crate::evaluator::{EvalError, Evaluation, Evaluator, Fidelity};
use crate::slo::Slo;
use crate::space::{CohortOption, PlannerSpace};

/// The percentile-headroom multiplier of every candidate charging
/// policy (the paper's value; candidates vary the battery floor).
const CHARGE_HEADROOM: f64 = 1.25;

/// Load fractions of nominal capacity the saturation screen sweeps.
const SCREEN_FRACTIONS: [f64; 3] = [0.6, 0.8, 1.0];

/// Seed of the swarm-spread placement of every cohort's services.
const PLACEMENT_SEED: u64 = 11;

/// Scores candidates by building and running a [`LifecycleSim`] per
/// `(candidate, fidelity)` pair. A batch builds and plans its candidates
/// across the workers, dropping each fleet once planned, then measures
/// the union of the slices the search's table lacks in one fan-out and
/// accounts each candidate; every candidate's run is capped at the
/// search's worker count. Workload seeds are derived from the candidate
/// fingerprint, so evaluation is a pure function of its inputs, alone or
/// in any batch.
///
/// Two modelling biases are inherited from the lifecycle layer and
/// apply to every candidate alike: outage-day latency is measured on
/// the full-strength topology (see the `LifecycleResult::worst_*`
/// docs), and wear-driven battery replacements beyond the evaluation
/// horizon are unbilled (see
/// [`FleetEvaluator::amortize_install`]).
#[derive(Debug, Clone)]
pub struct FleetEvaluator {
    space: PlannerSpace,
    app: Application,
    network: NetworkModel,
    request_type: Option<String>,
    schedule: DiurnalSchedule,
    /// The rented datacenter site candidates may blend in, registered at
    /// full share.
    leased: Option<FleetSite>,
    site_overhead_power: Watts,
    site_overhead_embodied: GramsCo2e,
    mtbf_days: f64,
    install_amortization: Option<TimeSpan>,
    seed: u64,
    /// Per cohort option: its serving simulation, built and compiled
    /// once (`None` for empty options, `Err` for recipes the placement
    /// cannot fit). Every candidate site built from the option shares it
    /// instead of re-assembling the app and placement and recompiling on
    /// every `(candidate, fidelity)` score.
    cohort_sims: Vec<Option<Result<Arc<CompiledSim>, EvalError>>>,
    /// Per cohort option: the saturation sweep of a site built from it
    /// (`None` for empty options or unbuildable cohorts). Empty until
    /// [`FleetEvaluator::with_saturation_screen`] runs.
    screen_curves: Vec<Option<LatencyCurve>>,
    leased_curve: Option<LatencyCurve>,
}

impl FleetEvaluator {
    /// Creates an evaluator scoring candidates of `space` serving
    /// `app`'s traffic, `schedule`'s day curve repeated over each
    /// fidelity's horizon.
    #[must_use]
    pub fn new(
        space: PlannerSpace,
        app: Application,
        network: NetworkModel,
        schedule: DiurnalSchedule,
        seed: u64,
    ) -> Self {
        let mut evaluator = Self {
            space,
            app,
            network,
            request_type: None,
            schedule,
            leased: None,
            site_overhead_power: Watts::ZERO,
            site_overhead_embodied: GramsCo2e::ZERO,
            mtbf_days: 0.0,
            install_amortization: None,
            seed,
            cohort_sims: Vec::new(),
            screen_curves: Vec::new(),
            leased_curve: None,
        };
        evaluator.cohort_sims = evaluator
            .space
            .cohort_options()
            .iter()
            .map(|option| {
                (!option.is_empty()).then(|| {
                    evaluator
                        .build_cohort_sim(option)
                        .map(|sim| Arc::new(sim.compile()))
                })
            })
            .collect();
        evaluator
    }

    /// The prebuilt simulation of one (non-empty) cohort option.
    fn cohort_sim(&self, cohort: usize) -> Result<&Arc<CompiledSim>, EvalError> {
        match &self.cohort_sims[cohort] {
            Some(Ok(sim)) => Ok(sim),
            Some(Err(error)) => Err(error.clone()),
            None => Err(EvalError::Build(
                "empty cohort options build no simulation".to_owned(),
            )),
        }
    }

    /// Restricts every site's workload to a single request type.
    #[must_use]
    pub fn request_type(mut self, name: impl Into<String>) -> Self {
        self.request_type = Some(name.into());
        self
    }

    /// Registers the leased datacenter site candidates may blend in via
    /// their fallback share: each candidate rents it
    /// [`FleetSite::scaled`] to that share.
    #[must_use]
    pub fn leased(mut self, site: FleetSite) -> Self {
        self.leased = Some(site);
        self
    }

    /// Sets the per-cloudlet overhead: an always-on draw (server fan,
    /// switch) and its embodied carbon, charged to every non-empty
    /// cohort site.
    #[must_use]
    pub fn site_overhead(mut self, power: Watts, embodied: GramsCo2e) -> Self {
        self.site_overhead_power = power;
        self.site_overhead_embodied = embodied;
        self
    }

    /// Enables stochastic device failures with the given mean days
    /// between failures per device (candidates pick the refill lag).
    ///
    /// # Panics
    ///
    /// Panics if not strictly positive.
    #[must_use]
    pub fn failures(mut self, mtbf_days: f64) -> Self {
        assert!(mtbf_days > 0.0, "MTBF must be positive");
        self.mtbf_days = mtbf_days;
        self
    }

    /// Amortises each cohort's install embodied carbon over an assumed
    /// service lifetime instead of charging it in full against the
    /// evaluation horizon.
    ///
    /// The lifecycle simulator charges a cohort's install bill on day 0,
    /// which is the right accounting for a multi-year trajectory — but a
    /// planner scoring candidates over a few simulated days would then
    /// weigh the whole install against a sliver of the requests it buys,
    /// and every comparison would collapse towards the leased backend
    /// (whose embodied share is already lease-amortised). Scaling the
    /// charged install to `horizon / lifetime` makes a short-horizon
    /// score a steady-state estimate of the lifetime-amortised
    /// gCO2e/request, directly comparable across cohort and leased
    /// candidates. Wear-driven battery replacements beyond the horizon
    /// remain unbilled — a small pro-cohort bias that applies to every
    /// cohort candidate alike.
    ///
    /// # Panics
    ///
    /// Panics if the lifetime is not strictly positive.
    #[must_use]
    pub fn amortize_install(mut self, lifetime: TimeSpan) -> Self {
        assert!(
            lifetime.seconds() > 0.0,
            "service lifetime must be positive"
        );
        self.install_amortization = Some(lifetime);
        self
    }

    /// Runs the saturation screen: every cohort option (and the leased
    /// site) is swept at a few fractions of its nominal capacity, so
    /// [`Evaluator::projected_shed`] can prune undersized candidates
    /// without a lifecycle run. All the sweeps' points run as
    /// one [`SweepConfig::run_batch`] capped at `parallelism` workers
    /// (`None`: the machine's available parallelism; `Some(1)`: on the
    /// caller's thread). Each sweep is seeded from the evaluator's seed,
    /// so the screen is the same at any worker count.
    ///
    /// # Errors
    ///
    /// Propagates the first sweep's simulation error, for example an
    /// unknown request type.
    pub fn with_saturation_screen(mut self, parallelism: Option<usize>) -> Result<Self, SimError> {
        let options = self.space.cohort_options().iter().zip(&self.cohort_sims);
        let cohorts: Vec<_> = (1..)
            .zip(options)
            .map(|(stream, (option, sim))| match sim {
                Some(Ok(sim)) => {
                    let sweep = self.screen_sweep(option.capacity_qps(), stream, parallelism);
                    Some((Arc::clone(sim), sweep))
                }
                _ => None,
            })
            .collect();
        let leased = self.leased.as_ref().map(|site| {
            let sweep = self.screen_sweep(site.capacity_qps(), 0x1ea5ed, parallelism);
            (site.sim(), sweep)
        });
        let members = cohorts
            .iter()
            .flatten()
            .map(|(sim, sweep)| (sweep, "screen", &**sim));
        let leased_member = leased.iter().map(|(sim, sweep)| (sweep, "screen", *sim));
        let mut curves = SweepConfig::run_batch(members.chain(leased_member))?.into_iter();
        self.screen_curves = cohorts
            .iter()
            .map(|cohort| cohort.as_ref().and_then(|_| curves.next()))
            .collect();
        self.leased_curve = curves.next();
        Ok(self)
    }

    /// The space this evaluator scores candidates of.
    #[must_use]
    pub fn space(&self) -> &PlannerSpace {
        &self.space
    }

    /// The screen's sweep of a site at its capacity fractions, seeded
    /// from stream `stream` of the screen's seed family.
    fn screen_sweep(
        &self,
        capacity_qps: f64,
        stream: u64,
        parallelism: Option<usize>,
    ) -> SweepConfig {
        let points: Vec<f64> = SCREEN_FRACTIONS.iter().map(|f| f * capacity_qps).collect();
        let seed = decorrelate_seed(decorrelate_seed(self.seed, 0x5c_4ee4), stream);
        let mut config = SweepConfig::new(points, 2.0, 0.5)
            .seed(seed)
            .decorrelated_seeds();
        if let Some(workers) = parallelism {
            config = config.parallelism(workers);
        }
        if let Some(request_type) = &self.request_type {
            config = config.request_type(request_type.clone());
        }
        config
    }

    /// Builds the serving simulation of one cohort option.
    fn build_cohort_sim(&self, option: &CohortOption) -> Result<Simulation, EvalError> {
        let mut nodes = Vec::with_capacity(option.device_count());
        for (slot, (device, _, count)) in option.slots().iter().enumerate() {
            for i in 0..*count {
                nodes.push(NodeSpec::from_device(
                    format!("s{slot}-{}-{i}", device.name()),
                    device,
                ));
            }
        }
        let app = self.app.clone();
        let placement = Placement::swarm_spread(&app, &nodes, PLACEMENT_SEED)
            .map_err(|e| EvalError::Build(format!("{}: {e:?}", option.label())))?;
        Simulation::new(app, nodes, placement, self.network)
            .map_err(|e| EvalError::Build(format!("{}: {e}", option.label())))
    }

    /// Builds one cohort lifecycle site for a candidate's region choice.
    fn build_cohort_site(
        &self,
        candidate: &CandidateDeployment,
        region: &GridRegion,
        cohort: usize,
        horizon_days: usize,
    ) -> Result<LifecycleSite, EvalError> {
        let option = &self.space.cohort_options()[cohort];
        let sim = self.cohort_sim(cohort)?;
        let mut devices = Vec::with_capacity(option.device_count());
        for (device, qps, count) in option.slots() {
            for _ in 0..*count {
                devices.push(
                    CohortDevice::from_catalog(device, *qps)
                        .map_err(|e| EvalError::Build(e.to_string()))?,
                );
            }
        }
        let mut install: GramsCo2e = devices
            .iter()
            .map(CohortDevice::replacement_embodied)
            .sum::<GramsCo2e>()
            + self.site_overhead_embodied;
        if let Some(lifetime) = self.install_amortization {
            let horizon = TimeSpan::from_days(horizon_days as f64);
            install = install * (horizon.seconds() / lifetime.seconds()).min(1.0);
        }
        let floor = self.space.charge_floor_of(candidate);
        let mut site = LifecycleSite::try_shared_cohort(
            region.name(),
            Arc::clone(sim),
            region.clone(),
            devices,
            install,
        )
        .map_err(|e| EvalError::Build(e.to_string()))?
        .overhead_power(self.site_overhead_power)
        .charge_policy(SmartChargePolicy::new(floor, CHARGE_HEADROOM));
        if self.mtbf_days > 0.0 {
            site = site
                .failures(self.mtbf_days, self.space.refill_lag_of(candidate))
                .map_err(|e| EvalError::Build(e.to_string()))?;
        }
        if let Some(request_type) = &self.request_type {
            site = site.request_type(request_type.clone());
        }
        Ok(site)
    }

    /// Builds the scaled leased site for a candidate's fallback share.
    fn build_leased_site(&self, share: f64) -> Result<LifecycleSite, EvalError> {
        let mut site = self
            .leased
            .as_ref()
            .ok_or_else(|| {
                EvalError::Build(
                    "candidate wants a leased fallback but no leased site is registered".to_owned(),
                )
            })?
            .scaled(share);
        if let Some(request_type) = &self.request_type {
            site = site.request_type(request_type.clone());
        }
        LifecycleSite::try_leased(site).map_err(|e| EvalError::Build(e.to_string()))
    }

    /// Builds a candidate's lifecycle fleet at `fidelity`, its workload
    /// seeded from the candidate fingerprint and its slices capped at
    /// `workers` threads.
    fn build_fleet(
        &self,
        candidate: &CandidateDeployment,
        fidelity: Fidelity,
        workers: usize,
    ) -> Result<LifecycleSim, EvalError> {
        if !self.space.is_valid(candidate) {
            return Err(EvalError::Build(
                "candidate indexes outside the space or provisions nothing".to_owned(),
            ));
        }
        let mut sites = Vec::new();
        for (r, region) in self.space.regions().iter().enumerate() {
            let cohort = candidate.site_cohorts()[r];
            if self.space.cohort_options()[cohort].is_empty() {
                continue;
            }
            sites.push(self.build_cohort_site(
                candidate,
                region,
                cohort,
                fidelity.horizon_days(),
            )?);
        }
        let share = self.space.fallback_share_of(candidate);
        if share > 0.0 {
            sites.push(self.build_leased_site(share)?);
        }

        let config = fidelity
            .config()
            .seed(decorrelate_seed(self.seed, candidate.fingerprint()))
            .parallelism(workers);
        Ok(LifecycleSim::new(
            sites,
            self.schedule.clone(),
            self.space.routing_of(candidate),
            config,
        ))
    }

    /// A cheap upper bound on the offered load the candidate can serve
    /// within the SLO's latency bounds, from the saturation screen's
    /// curves; `None` before the screen runs.
    fn sustainable_capacity_qps(&self, candidate: &CandidateDeployment, slo: &Slo) -> Option<f64> {
        if self.screen_curves.is_empty() {
            return None;
        }
        let mut sustainable = 0.0;
        for &cohort in candidate.site_cohorts() {
            let option = &self.space.cohort_options()[cohort];
            if option.is_empty() {
                continue;
            }
            // An unbuildable cohort contributes nothing (and will fail
            // its build during evaluation anyway).
            if let Some(curve) = &self.screen_curves[cohort] {
                let knee = curve
                    .max_sustainable_qps(slo.median_limit_ms(), slo.tail_limit_ms())
                    .unwrap_or(0.0);
                sustainable += knee.min(option.capacity_qps());
            }
        }
        let share = self.space.fallback_share_of(candidate);
        if share > 0.0 {
            if let (Some(site), Some(curve)) = (&self.leased, &self.leased_curve) {
                let knee = curve
                    .max_sustainable_qps(slo.median_limit_ms(), slo.tail_limit_ms())
                    .unwrap_or(0.0);
                // The scaled site keeps the full simulation — only the
                // router's capacity cap shrinks with the share — so its
                // sustainable load is min(knee, share × capacity).
                // Scaling the knee itself would understate it and could
                // prune feasible candidates.
                sustainable += knee.min(share * site.capacity_qps());
            }
        }
        Some(sustainable)
    }

    /// Horizon-wide shed estimate under the routing layer's semantics:
    /// a window's assignment is scaled by `min(1, capacity / peak)`, so
    /// a capacity-capped fleet sheds `mean × (1 − capacity/peak)` of
    /// each window whose peak exceeds it. Hourly windows track the
    /// demand curve at least as finely as any evaluation fidelity, so
    /// this estimate never exceeds the shed a real evaluation would
    /// measure — pruning on it is sound.
    fn demand_shed_fraction(&self, capacity_qps: f64) -> f64 {
        let mut offered = 0.0;
        let mut shed = 0.0;
        for window in self.schedule.windows(1, 24) {
            let mean = window.mean_qps();
            let peak = window.peak_qps();
            offered += mean;
            if peak > capacity_qps {
                shed += mean * (1.0 - (capacity_qps / peak).max(0.0));
            }
        }
        if offered > 0.0 {
            shed / offered
        } else {
            0.0
        }
    }
}

impl Evaluator for FleetEvaluator {
    /// Builds and plans every candidate across `workers` threads, each
    /// fleet dropped once planned, then scores the plans as one
    /// [`LifecycleSim::run_batch`] against `slices`: the slices the table
    /// lacks run in a single fan-out, and every candidate's run is capped
    /// at `workers`.
    fn evaluate(
        &self,
        candidates: &[&CandidateDeployment],
        fidelity: Fidelity,
        slices: &mut MeasuredSlices,
        workers: usize,
    ) -> Vec<Result<Evaluation, EvalError>> {
        let planned = fan_out(candidates.iter().copied(), workers, |_, candidate| {
            self.build_fleet(candidate, fidelity, workers)
                .map(|fleet| fleet.plan())
        });
        let planned = match planned {
            Ok(planned) => planned,
            Err(lost) => return vec![Err(EvalError::Sim(lost.to_string())); candidates.len()],
        };
        let mut plans = Vec::with_capacity(planned.len());
        let built: Vec<Result<(), EvalError>> = planned
            .into_iter()
            .map(|planned| planned.map(|plan| plans.push(plan)))
            .collect();
        let mut runs = LifecycleSim::run_batch(plans, slices).into_iter();
        candidates
            .iter()
            .zip(built)
            .map(|(candidate, built)| {
                built?;
                let result = runs
                    .next()
                    .unwrap_or(Err(SimError::WorkerLost))
                    .map_err(|e| EvalError::Sim(e.to_string()))?;
                Ok(Evaluation::new(
                    result.grams_per_request(),
                    result.worst_median_ms(),
                    result.worst_tail_ms(),
                    result.worst_p99_ms(),
                    result.shed_fraction(),
                    self.space.total_devices(candidate),
                ))
            })
            .collect()
    }

    /// The shed of the demand beyond the candidate's screened capacity;
    /// `None` until [`FleetEvaluator::with_saturation_screen`] runs.
    fn projected_shed(&self, candidate: &CandidateDeployment, slo: &Slo) -> Option<f64> {
        self.sustainable_capacity_qps(candidate, slo)
            .map(|capacity_qps| self.demand_shed_fraction(capacity_qps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::EvalCache;
    use crate::search::{search, SearchConfig};
    use crate::testutil::{flat_region, pixel_option};
    use junkyard_microsim::app::hotel_reservation;

    /// Scores one candidate alone, on a fresh slice table.
    fn evaluate_one(
        evaluator: &FleetEvaluator,
        candidate: &CandidateDeployment,
        fidelity: Fidelity,
    ) -> Result<Evaluation, EvalError> {
        evaluator
            .evaluate(&[candidate], fidelity, &mut MeasuredSlices::new(), 2)
            .pop()
            .expect("one result per candidate")
    }

    fn tiny_space() -> PlannerSpace {
        PlannerSpace::new(
            vec![CohortOption::empty(), pixel_option(2), pixel_option(4)],
            vec![flat_region("west", 120.0), flat_region("east", 420.0)],
        )
    }

    fn evaluator() -> FleetEvaluator {
        FleetEvaluator::new(
            tiny_space(),
            hotel_reservation(),
            NetworkModel::phone_wifi(),
            DiurnalSchedule::office_day(700.0),
            7,
        )
    }

    /// A rented two-phone site declared at 1,000 QPS, far beyond its
    /// simulation's latency knee.
    fn oversized_lease() -> FleetSite {
        let app = hotel_reservation();
        let nodes = vec![NodeSpec::pixel_3a(0), NodeSpec::pixel_3a(1)];
        let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
        let sim = Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap();
        FleetSite::new("oversized-lease", &sim, flat_region("gas", 420.0), 1_000.0)
    }

    #[test]
    fn a_batch_scores_every_candidate_as_evaluate_does() {
        let space = tiny_space().fallback_shares(vec![0.0, 1.0]);
        let evaluator = FleetEvaluator::new(
            space,
            hotel_reservation(),
            NetworkModel::phone_wifi(),
            DiurnalSchedule::office_day(700.0),
            7,
        )
        .leased(oversized_lease());
        let mut candidates = evaluator.space().enumerate();
        // One candidate provisions nothing and fails its build.
        candidates.insert(3, CandidateDeployment::new(vec![0, 0], 0, 0, 0, 0));
        let fidelity = Fidelity::coarse();
        let own: Vec<_> = candidates
            .iter()
            .map(|candidate| evaluate_one(&evaluator, candidate, fidelity))
            .collect();
        assert!(matches!(own[3], Err(EvalError::Build(_))));
        assert_eq!(
            own.iter().filter(|r| r.is_ok()).count(),
            candidates.len() - 1
        );
        let batch: Vec<&CandidateDeployment> = candidates.iter().collect();
        for workers in [1, 4] {
            let mut slices = MeasuredSlices::new();
            let scored = evaluator.evaluate(&batch, fidelity, &mut slices, workers);
            assert_eq!(scored, own, "workers {workers}");
            // Workload seeds come from each candidate's fingerprint, so
            // candidates share no slice: the table holds exactly the
            // slices each one measures alone.
            let alone: usize = candidates
                .iter()
                .map(|candidate| {
                    let mut own_slices = MeasuredSlices::new();
                    let _ = evaluator.evaluate(&[candidate], fidelity, &mut own_slices, workers);
                    own_slices.len()
                })
                .sum();
            assert_eq!(slices.len(), alone);
        }
    }

    #[test]
    fn a_promoted_candidate_measures_no_slice_its_shorter_run_measured() {
        // Flat grids, a daily demand curve and no failures: a survivor's
        // 4-day run repeats its 2-day run's days, so the second rung
        // finds every slice it needs in the search's table.
        let evaluator = evaluator();
        let slo = Slo::paper_default();
        let config = |rungs: Vec<Fidelity>| {
            SearchConfig::new()
                .rungs(rungs)
                .local_search(1, 0, 1)
                .parallelism(2)
        };
        let coarse = search(
            evaluator.space(),
            &evaluator,
            &slo,
            &config(vec![Fidelity::coarse()]),
            &mut EvalCache::new(),
        );
        let promoted = search(
            evaluator.space(),
            &evaluator,
            &slo,
            &config(vec![Fidelity::coarse(), Fidelity::new(4, 2, 1.0, 0.0)]),
            &mut EvalCache::new(),
        );
        assert!(coarse.slices_measured() > 0);
        assert!(promoted.fresh_evaluations() > coarse.fresh_evaluations());
        assert_eq!(promoted.slices_measured(), coarse.slices_measured());
    }

    #[test]
    fn evaluation_measures_a_real_lifecycle_run() {
        let evaluator = evaluator();
        let candidate = CandidateDeployment::new(vec![1, 1], 1, 0, 0, 0);
        let evaluation = evaluate_one(&evaluator, &candidate, Fidelity::coarse()).unwrap();
        assert!(evaluation.grams_per_request().unwrap() > 0.0);
        assert!(evaluation.worst_median_ms() > 0.0);
        assert!(evaluation.worst_p99_ms() >= evaluation.worst_tail_ms());
        assert_eq!(evaluation.devices(), 4);
    }

    #[test]
    fn evaluation_is_a_pure_function_of_candidate_and_fidelity() {
        let evaluator = evaluator();
        let candidate = CandidateDeployment::new(vec![2, 0], 0, 0, 0, 0);
        let first = evaluate_one(&evaluator, &candidate, Fidelity::coarse()).unwrap();
        let second = evaluate_one(&evaluator, &candidate, Fidelity::coarse()).unwrap();
        assert_eq!(first, second);
        // A different fidelity is a genuinely different measurement.
        let finer = evaluate_one(&evaluator, &candidate, Fidelity::new(3, 2, 1.0, 0.0)).unwrap();
        assert_ne!(first, finer);
    }

    #[test]
    fn fallback_without_a_blueprint_fails_the_build() {
        let space = tiny_space().fallback_shares(vec![0.0, 1.0]);
        let evaluator = FleetEvaluator::new(
            space,
            hotel_reservation(),
            NetworkModel::phone_wifi(),
            DiurnalSchedule::office_day(300.0),
            7,
        );
        let candidate = CandidateDeployment::new(vec![0, 0], 0, 0, 0, 1);
        assert!(matches!(
            evaluate_one(&evaluator, &candidate, Fidelity::coarse()),
            Err(EvalError::Build(_))
        ));
    }

    #[test]
    fn saturation_screen_prunes_undersized_candidates() {
        let evaluator = evaluator().with_saturation_screen(Some(2)).unwrap();
        let slo = Slo::paper_default();
        // A two-phone site sustains ~600 QPS within the SLO, but the
        // office-day demand peaks at ~800 QPS: single-site candidates
        // are undersized and must be pruned before any lifecycle run.
        let big = CandidateDeployment::new(vec![2, 2], 1, 0, 0, 0);
        let big_cap = evaluator.sustainable_capacity_qps(&big, &slo).unwrap();
        let small = CandidateDeployment::new(vec![1, 0], 1, 0, 0, 0);
        let small_cap = evaluator.sustainable_capacity_qps(&small, &slo).unwrap();
        assert!(big_cap > small_cap);
        // The shed estimate orders with capacity and vanishes once the
        // fleet covers the whole curve.
        let small_shed = evaluator.demand_shed_fraction(small_cap);
        let big_shed = evaluator.demand_shed_fraction(big_cap);
        assert!(small_shed > slo.max_shed_fraction(), "shed {small_shed}");
        assert!(big_shed <= small_shed);
        assert_eq!(evaluator.demand_shed_fraction(1e9), 0.0);
        assert_eq!(evaluator.projected_shed(&small, &slo), Some(small_shed));
        // The full search screens at least the empty-ish deployments out.
        let mut cache = EvalCache::new();
        let config = SearchConfig::new()
            .rungs(vec![Fidelity::coarse()])
            .local_search(2, 1, 1)
            .parallelism(2);
        let outcome = search(evaluator.space(), &evaluator, &slo, &config, &mut cache);
        assert!(outcome.screened_out() > 0, "screen never fired");
        for planned in outcome.frontier() {
            assert!(planned.evaluation().meets(&slo));
        }
    }

    #[test]
    fn leased_screen_caps_at_share_capacity_not_scaled_knee() {
        // A leased site whose declared capacity is far beyond the
        // simulation's latency knee: the scaled site keeps the full sim,
        // so any share with share x capacity >= knee sustains the whole
        // knee. The old `share x knee` formula halved it.
        let space = tiny_space().fallback_shares(vec![0.0, 0.5, 1.0]);
        let evaluator = FleetEvaluator::new(
            space,
            hotel_reservation(),
            NetworkModel::phone_wifi(),
            DiurnalSchedule::office_day(700.0),
            7,
        )
        .leased(oversized_lease())
        .with_saturation_screen(Some(2))
        .unwrap();
        let slo = Slo::paper_default();
        let leased_only =
            |share_index: usize| CandidateDeployment::new(vec![0, 0], 0, 0, 0, share_index);
        let full = evaluator
            .sustainable_capacity_qps(&leased_only(2), &slo)
            .unwrap();
        let half = evaluator
            .sustainable_capacity_qps(&leased_only(1), &slo)
            .unwrap();
        // The half-share site still runs the full simulation, so it
        // sustains min(knee, 500): exactly 500 whenever the knee clears
        // half the declared capacity. The old `share x knee` formula
        // reported strictly less than 500 for any knee below 1,000.
        assert!(full > 500.0, "knee {full} must clear half the capacity");
        assert!((half - 500.0).abs() < 1e-9, "half-share {half}");
        // The batch hands each site its own curve: the leased site's and
        // every non-empty option's loads are its own capacity fractions.
        let loads = |curve: Option<&LatencyCurve>| {
            curve.map(|c| c.points().iter().map(|p| p.qps()).collect::<Vec<_>>())
        };
        let fractions = |capacity: f64| SCREEN_FRACTIONS.map(|f| f * capacity).to_vec();
        assert_eq!(
            loads(evaluator.leased_curve.as_ref()),
            Some(fractions(1_000.0))
        );
        let options = evaluator.space.cohort_options();
        for (option, curve) in options.iter().zip(&evaluator.screen_curves) {
            let expected = (!option.is_empty()).then(|| fractions(option.capacity_qps()));
            assert_eq!(loads(curve.as_ref()), expected, "{}", option.label());
        }
    }

    #[test]
    fn cache_hits_reproduce_fresh_evaluations_bit_for_bit() {
        let evaluator = evaluator();
        let candidate = CandidateDeployment::new(vec![1, 2], 1, 0, 0, 0);
        let batch = std::slice::from_ref(&candidate);
        let mut cache = EvalCache::new();
        let first = cache.score(&evaluator, batch, Fidelity::coarse(), 1);
        assert_eq!(cache.len(), 1);
        let cached = cache.score(&evaluator, batch, Fidelity::coarse(), 1);
        assert_eq!(cache.len(), 1, "second lookup is served from the cache");
        assert_eq!(first, cached);
        assert_eq!(cache.hits(), 1);
    }
}
