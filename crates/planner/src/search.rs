//! The deterministic search engine: SLO pre-screen, successive halving
//! over simulation fidelity, and a seeded local-search mutation loop.
//!
//! Candidates are scored in *batches* through [`EvalCache::score`]: each
//! batch is composed serially against the cache (so hit and miss counts
//! are reproducible), deduplicated by fingerprint, and only the genuinely
//! new `(candidate, fidelity)` pairs go to the evaluator as one
//! [`Evaluator::evaluate`] call, with the search's slice table that the
//! cache owns. The evaluator fans the batch out with the same
//! order-preserving `fan_out` the sweep, fleet and lifecycle layers use:
//! the lifecycle evaluator plans every candidate across the workers, then
//! simulates the union of the slices the table lacks in one fan-out, so a
//! candidate promoted to a longer horizon re-simulates none of the slices
//! its shorter run measured. Because every evaluation is a pure function
//! of its inputs, the whole search is bit-identical at any worker count.

use std::collections::BTreeMap;

use junkyard_microsim::fanout;
use junkyard_microsim::sweep::decorrelate_seed;
use junkyard_obs::{EventKind, NoopRecorder, Recorder, TraceEvent};

use crate::candidate::CandidateDeployment;
use crate::evaluator::{EvalCache, EvalError, Evaluation, Evaluator, Fidelity};
use crate::pareto::pareto_indices;
use crate::slo::Slo;
use crate::space::PlannerSpace;

/// Tunables of one planner search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    seed: u64,
    rungs: Vec<Fidelity>,
    survivor_fraction: f64,
    min_survivors: usize,
    elites: usize,
    mutation_rounds: usize,
    mutations_per_elite: usize,
    parallelism: Option<usize>,
    pinned: Vec<CandidateDeployment>,
}

impl SearchConfig {
    /// Defaults: seed 42, a coarse→medium successive-halving ladder,
    /// half the population surviving each rung (at least 4), 4 elites
    /// with 2 mutation rounds of 2 mutations each, machine parallelism.
    #[must_use]
    pub fn new() -> Self {
        Self {
            seed: 42,
            rungs: vec![Fidelity::coarse(), Fidelity::medium()],
            survivor_fraction: 0.5,
            min_survivors: 4,
            elites: 4,
            mutation_rounds: 2,
            mutations_per_elite: 2,
            parallelism: None,
            pinned: Vec::new(),
        }
    }

    /// Pins a candidate: it bypasses the pre-screen and survives every
    /// halving rung, so it is always scored at the final fidelity and —
    /// when feasible — always eligible for the frontier and the argmin.
    /// Pin a hand-built incumbent to make "the search can only match or
    /// beat it" hold by construction rather than by luck of the coarse
    /// rungs.
    #[must_use]
    pub fn pin(mut self, candidate: CandidateDeployment) -> Self {
        self.pinned.push(candidate);
        self
    }

    /// Sets the root seed; mutation draws are mixed from it with
    /// [`decorrelate_seed`].
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the successive-halving fidelity ladder, coarsest first. The
    /// last rung is the *final* fidelity the frontier is reported at.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    #[must_use]
    pub fn rungs(mut self, rungs: Vec<Fidelity>) -> Self {
        assert!(!rungs.is_empty(), "the search needs at least one rung");
        self.rungs = rungs;
        self
    }

    /// Configures the local-search loop: `elites` candidates are kept,
    /// each proposing `mutations_per_elite` neighbours per round for
    /// `rounds` rounds. Zero rounds disables local search.
    #[must_use]
    pub fn local_search(
        mut self,
        elites: usize,
        rounds: usize,
        mutations_per_elite: usize,
    ) -> Self {
        self.elites = elites.max(1);
        self.mutation_rounds = rounds;
        self.mutations_per_elite = mutations_per_elite.max(1);
        self
    }

    /// Caps the worker threads; `1` forces a serial search.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        assert!(workers > 0, "the search needs at least one worker");
        self.parallelism = Some(workers);
        self
    }

    /// The fidelity the frontier is reported at (the last rung).
    #[must_use]
    pub fn final_fidelity(&self) -> Fidelity {
        *self.rungs.last().expect("rungs are never empty")
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// One scored deployment of the outcome: the candidate, its final-
/// fidelity evaluation and a human-readable label.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedDeployment {
    candidate: CandidateDeployment,
    evaluation: Evaluation,
    label: String,
}

impl PlannedDeployment {
    /// The deployment's point in the search space.
    #[must_use]
    pub fn candidate(&self) -> &CandidateDeployment {
        &self.candidate
    }

    /// The final-fidelity evaluation.
    #[must_use]
    pub fn evaluation(&self) -> &Evaluation {
        &self.evaluation
    }

    /// Human-readable description of the deployment.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Assembles a planned deployment from its parts — for callers that
    /// score extra candidates (for example a hand-built baseline)
    /// outside the search proper.
    #[must_use]
    pub fn from_parts(
        candidate: CandidateDeployment,
        evaluation: Evaluation,
        label: String,
    ) -> Self {
        Self {
            candidate,
            evaluation,
            label,
        }
    }
}

/// What a search produced: the SLO-satisfying Pareto frontier, the
/// carbon argmin, and the bookkeeping the perf report tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    frontier: Vec<PlannedDeployment>,
    best: Option<PlannedDeployment>,
    final_fidelity: Fidelity,
    candidates_enumerated: usize,
    screened_out: usize,
    rung_populations: Vec<usize>,
    fresh_evaluations: u64,
    cache_hits: u64,
    cache_misses: u64,
    slices_measured: usize,
}

impl SearchOutcome {
    /// The SLO-satisfying Pareto frontier over (gCO2e/request, p99 ms,
    /// device count), sorted by carbon per request.
    #[must_use]
    pub fn frontier(&self) -> &[PlannedDeployment] {
        &self.frontier
    }

    /// The feasible deployment with the lowest carbon per request, if
    /// any candidate met the SLO.
    #[must_use]
    pub fn best(&self) -> Option<&PlannedDeployment> {
        self.best.as_ref()
    }

    /// The fidelity the frontier was scored at.
    #[must_use]
    pub fn final_fidelity(&self) -> Fidelity {
        self.final_fidelity
    }

    /// Valid candidates the space enumerated.
    #[must_use]
    pub fn candidates_enumerated(&self) -> usize {
        self.candidates_enumerated
    }

    /// Candidates pruned by the saturation pre-screen before any
    /// simulation ran.
    #[must_use]
    pub fn screened_out(&self) -> usize {
        self.screened_out
    }

    /// Population size at each successive-halving rung.
    #[must_use]
    pub fn rung_populations(&self) -> &[usize] {
        &self.rung_populations
    }

    /// Simulations actually run (cache misses that were computed).
    #[must_use]
    pub fn fresh_evaluations(&self) -> u64 {
        self.fresh_evaluations
    }

    /// Cache lookups served without a simulation.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Cache lookups that required a simulation.
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Distinct microsim slices the search measured: the growth of the
    /// cache's slice table, counted between batches, so the same at any
    /// worker count.
    #[must_use]
    pub fn slices_measured(&self) -> usize {
        self.slices_measured
    }

    /// Cache hit rate over the whole search.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total > 0 {
            self.cache_hits as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// Ranking key for successive halving: feasible candidates first by
/// carbon, then infeasible-but-measurable ones (they may pass at a finer
/// fidelity), with the fingerprint as a total-order tie-breaker.
fn rank_key(result: &Result<Evaluation, EvalError>, slo: &Slo) -> (u8, f64) {
    match result {
        Ok(evaluation) if evaluation.meets(slo) => {
            (0, evaluation.grams_per_request().unwrap_or(f64::INFINITY))
        }
        Ok(evaluation) => (1, evaluation.grams_per_request().unwrap_or(f64::INFINITY)),
        Err(_) => (2, f64::INFINITY),
    }
}

/// Runs the full planner search over `space` with `evaluator` as the
/// black box, under `slo` as a hard constraint.
///
/// The phases, in order:
///
/// 1. **Enumerate** every valid candidate of the space.
/// 2. **Screen** out candidates whose SLO-sustainable capacity would
///    force more shed than the SLO's ceiling over the whole horizon (per
///    [`Evaluator::projected_shed`]); pinned candidates bypass the
///    screen and survive every rung.
/// 3. **Successive halving**: score the survivors at each fidelity rung,
///    keeping the best fraction for the next (finer, costlier) rung.
/// 4. **Local search**: mutate the elites for a few rounds at the final
///    fidelity; the evaluation cache makes revisited neighbours free.
/// 5. Report the SLO-satisfying **Pareto frontier** over
///    (gCO2e/request, p99, devices) and the carbon argmin.
///
/// Passing the cache in lets a caller score extra candidates afterwards
/// (for example a hand-built baseline) without re-simulating anything
/// the search already touched.
#[must_use]
pub fn search<E: Evaluator + ?Sized>(
    space: &PlannerSpace,
    evaluator: &E,
    slo: &Slo,
    config: &SearchConfig,
    cache: &mut EvalCache,
) -> SearchOutcome {
    search_with(space, evaluator, slo, config, cache, &mut NoopRecorder)
}

/// [`search`] with planner telemetry: pre-screen prune decisions (with
/// the projected shed that condemned each candidate), rung entry
/// populations and promotions, and per-batch cache hit/miss counts are
/// recorded into `recorder`. All hooks fire on the serial composition
/// side — the evaluation fan-out is untouched and the returned
/// [`SearchOutcome`] is bit-identical to [`search`] for any recorder.
/// The trace's time axis is the rung index (the search has no simulated
/// clock of its own).
#[must_use]
pub fn search_with<E: Evaluator + ?Sized, R: Recorder>(
    space: &PlannerSpace,
    evaluator: &E,
    slo: &Slo,
    config: &SearchConfig,
    cache: &mut EvalCache,
    recorder: &mut R,
) -> SearchOutcome {
    let workers = fanout::workers(config.parallelism, usize::MAX);
    // The cache may arrive pre-warmed (the doc above invites reuse);
    // report this search's own traffic, not the cache's lifetime totals.
    // Each fresh evaluation stores exactly one entry, so the cache's
    // growth counts them.
    let entries_at_entry = cache.len();
    let hits_at_entry = cache.hits();
    let misses_at_entry = cache.misses();
    let slices_at_entry = cache.slices_measured();

    // Phase 1+2: enumerate and screen. Pruning is on the *horizon-wide*
    // shed fraction a candidate's SLO-sustainable capacity would force —
    // a candidate that sheds only a sliver of demand at the daily peak
    // stays in — and pinned candidates bypass the screen entirely.
    let population = space.enumerate();
    let candidates_enumerated = population.len();
    let is_pinned = |candidate: &CandidateDeployment| {
        config
            .pinned
            .iter()
            .any(|p| p.fingerprint() == candidate.fingerprint())
    };
    let mut screened: Vec<CandidateDeployment> = Vec::with_capacity(population.len());
    let mut screened_out = 0usize;
    for candidate in population {
        let projected_shed = if is_pinned(&candidate) {
            None
        } else {
            evaluator.projected_shed(&candidate, slo)
        };
        let undersized = projected_shed.is_some_and(|shed| shed > slo.max_shed_fraction() + 1e-9);
        if undersized {
            screened_out += 1;
            if recorder.enabled() {
                recorder.event(
                    TraceEvent::new(
                        EventKind::Prune,
                        0.0,
                        &format!("{:016x}", candidate.fingerprint()),
                        projected_shed.unwrap_or(0.0),
                    )
                    .with_detail("screen: projected shed above the SLO ceiling"),
                );
            }
        } else {
            screened.push(candidate);
        }
    }
    // Pinned candidates outside the enumerable population (or dropped as
    // invalid) still deserve a score if the space can express them.
    for pinned in &config.pinned {
        if space.is_valid(pinned)
            && !screened
                .iter()
                .any(|c| c.fingerprint() == pinned.fingerprint())
        {
            screened.push(pinned.clone());
        }
    }

    // Phase 3: successive halving over the fidelity ladder.
    let mut rung_populations = Vec::with_capacity(config.rungs.len());
    let mut rung_pop = screened;
    let mut final_results: Vec<Result<Evaluation, EvalError>> = Vec::new();
    for (rung_index, &fidelity) in config.rungs.iter().enumerate() {
        rung_populations.push(rung_pop.len());
        if recorder.enabled() {
            recorder.event(
                TraceEvent::new(
                    EventKind::Rung,
                    rung_index as f64,
                    &format!("rung{rung_index}"),
                    rung_pop.len() as f64,
                )
                .with_detail("population at rung entry"),
            );
        }
        let hits_before = cache.hits();
        let misses_before = cache.misses();
        let results = cache.score(evaluator, &rung_pop, fidelity, workers);
        if recorder.enabled() {
            recorder.count(EventKind::CacheHit, cache.hits() - hits_before);
            recorder.count(EventKind::CacheMiss, cache.misses() - misses_before);
        }
        if rung_index + 1 == config.rungs.len() {
            final_results = results;
            break;
        }
        // Rank and keep the best fraction; failed builds never advance.
        let mut order: Vec<usize> = (0..rung_pop.len())
            .filter(|&i| results[i].is_ok())
            .collect();
        order.sort_by(|&a, &b| {
            let ka = rank_key(&results[a], slo);
            let kb = rank_key(&results[b], slo);
            ka.partial_cmp(&kb)
                .expect("rank keys are comparable")
                .then_with(|| rung_pop[a].fingerprint().cmp(&rung_pop[b].fingerprint()))
        });
        let keep = ((rung_pop.len() as f64 * config.survivor_fraction).ceil() as usize)
            .max(config.min_survivors)
            .min(order.len());
        order.truncate(keep);
        let mut survivors: Vec<CandidateDeployment> =
            order.iter().map(|&i| rung_pop[i].clone()).collect();
        // Pinned candidates ride through every rung (unless their build
        // failed outright — an error cannot improve at finer fidelity).
        for (index, candidate) in rung_pop.iter().enumerate() {
            if is_pinned(candidate) && results[index].is_ok() && !order.contains(&index) {
                survivors.push(candidate.clone());
            }
        }
        rung_pop = survivors;
        if recorder.enabled() {
            recorder.event(
                TraceEvent::new(
                    EventKind::Rung,
                    rung_index as f64 + 0.5,
                    &format!("rung{rung_index}->rung{}", rung_index + 1),
                    rung_pop.len() as f64,
                )
                .with_detail("survivors promoted"),
            );
        }
        if rung_pop.is_empty() {
            break;
        }
    }
    let final_fidelity = config.final_fidelity();

    // Everything scored at the final fidelity, first occurrence wins.
    let mut scored: Vec<(CandidateDeployment, Result<Evaluation, EvalError>)> = Vec::new();
    // Dedup by exact fingerprint; `scored` keeps first-occurrence order.
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    let absorb = |scored: &mut Vec<(CandidateDeployment, Result<Evaluation, EvalError>)>,
                  seen: &mut BTreeMap<u64, usize>,
                  candidate: &CandidateDeployment,
                  result: &Result<Evaluation, EvalError>| {
        seen.entry(candidate.fingerprint()).or_insert_with(|| {
            scored.push((candidate.clone(), result.clone()));
            scored.len() - 1
        });
    };
    for (candidate, result) in rung_pop.iter().zip(&final_results) {
        absorb(&mut scored, &mut seen, candidate, result);
    }

    // Phase 4: seeded local search around the elites.
    let elites_of = |scored: &[(CandidateDeployment, Result<Evaluation, EvalError>)]| {
        let mut order: Vec<usize> = (0..scored.len()).filter(|&i| scored[i].1.is_ok()).collect();
        order.sort_by(|&a, &b| {
            let ka = rank_key(&scored[a].1, slo);
            let kb = rank_key(&scored[b].1, slo);
            ka.partial_cmp(&kb)
                .expect("rank keys are comparable")
                .then_with(|| scored[a].0.fingerprint().cmp(&scored[b].0.fingerprint()))
        });
        order.truncate(config.elites);
        order
    };
    for round in 0..config.mutation_rounds {
        let elite_indices = elites_of(&scored);
        if elite_indices.is_empty() {
            break;
        }
        // Elites are re-submitted alongside their neighbours: their
        // lookups are guaranteed cache hits, and the batch stays one
        // deterministic unit.
        let mut batch: Vec<CandidateDeployment> = Vec::new();
        for (position, &elite) in elite_indices.iter().enumerate() {
            let elite_candidate = scored[elite].0.clone();
            batch.push(elite_candidate.clone());
            for mutation in 0..config.mutations_per_elite {
                let draw = decorrelate_seed(
                    config.seed,
                    ((round * config.elites + position) * config.mutations_per_elite + mutation)
                        as u64
                        + 0x0bad_5eed,
                );
                batch.push(space.mutate(&elite_candidate, draw));
            }
        }
        let hits_before = cache.hits();
        let misses_before = cache.misses();
        let results = cache.score(evaluator, &batch, final_fidelity, workers);
        if recorder.enabled() {
            recorder.count(EventKind::CacheHit, cache.hits() - hits_before);
            recorder.count(EventKind::CacheMiss, cache.misses() - misses_before);
        }
        for (candidate, result) in batch.iter().zip(&results) {
            absorb(&mut scored, &mut seen, candidate, result);
        }
    }

    // Phase 5: the SLO-satisfying Pareto frontier and the argmin.
    let feasible: Vec<(&CandidateDeployment, &Evaluation)> = scored
        .iter()
        .filter_map(|(candidate, result)| match result {
            Ok(evaluation) if evaluation.meets(slo) => Some((candidate, evaluation)),
            _ => None,
        })
        .collect();
    let objectives: Vec<[f64; 3]> = feasible
        .iter()
        .map(|(_, evaluation)| {
            [
                evaluation
                    .grams_per_request()
                    .expect("feasible deployments served requests"),
                evaluation.worst_p99_ms(),
                evaluation.devices() as f64,
            ]
        })
        .collect();
    let frontier: Vec<PlannedDeployment> = pareto_indices(&objectives)
        .into_iter()
        .map(|i| PlannedDeployment {
            candidate: feasible[i].0.clone(),
            evaluation: *feasible[i].1,
            label: space.describe(feasible[i].0),
        })
        .collect();
    let best = frontier.first().cloned();

    SearchOutcome {
        frontier,
        best,
        final_fidelity,
        candidates_enumerated,
        screened_out,
        rung_populations,
        fresh_evaluations: (cache.len() - entries_at_entry) as u64,
        cache_hits: cache.hits() - hits_at_entry,
        cache_misses: cache.misses() - misses_at_entry,
        slices_measured: cache.slices_measured() - slices_at_entry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::CohortOption;
    use crate::testutil::{flat_region, pixel_option};
    use junkyard_fleet::lifecycle::MeasuredSlices;

    /// A pure synthetic evaluator: every metric is a deterministic
    /// function of the candidate's indices, so the search machinery can
    /// be exercised without building a single simulation.
    struct Synthetic;

    impl Synthetic {
        fn grams(candidate: &CandidateDeployment) -> f64 {
            // Carbon falls with the second region's cohort index and
            // rises with the fallback share — a simple landscape whose
            // argmin is (cohort 2 everywhere, carbon-aware, no fallback).
            let cohorts: usize = candidate.site_cohorts().iter().sum();
            10.0 - cohorts as f64
                + 3.0 * candidate.fallback() as f64
                + if candidate.routing() == 1 { -0.5 } else { 0.0 }
        }
    }

    impl Evaluator for Synthetic {
        fn evaluate(
            &self,
            candidates: &[&CandidateDeployment],
            fidelity: Fidelity,
            _: &mut MeasuredSlices,
            _: usize,
        ) -> Vec<Result<Evaluation, EvalError>> {
            candidates
                .iter()
                .map(|&candidate| {
                    let devices: usize = candidate.site_cohorts().iter().map(|&c| c * 2).sum();
                    // Latency violates the SLO when both regions pick the
                    // small cohort 1 without any fallback.
                    let undersized = candidate.site_cohorts().iter().all(|&c| c <= 1)
                        && candidate.fallback() == 0;
                    let median = if undersized { 90.0 } else { 12.0 };
                    // The coarse rung under-reports latency slightly;
                    // metrics stay a pure function of (candidate, fidelity).
                    let scale = 1.0 + fidelity.horizon_days() as f64 / 100.0;
                    Ok(Evaluation::new(
                        Some(Self::grams(candidate)),
                        median * scale,
                        median * 2.0 * scale,
                        median * 3.0 * scale,
                        0.0,
                        devices,
                    ))
                })
                .collect()
        }
    }

    fn space() -> PlannerSpace {
        PlannerSpace::new(
            vec![CohortOption::empty(), pixel_option(2), pixel_option(4)],
            vec![flat_region("west", 100.0), flat_region("east", 400.0)],
        )
        .fallback_shares(vec![0.0, 0.5])
    }

    fn config() -> SearchConfig {
        SearchConfig::new()
            .rungs(vec![Fidelity::coarse(), Fidelity::medium()])
            .local_search(3, 2, 2)
    }

    #[test]
    fn search_finds_the_synthetic_argmin_and_respects_the_slo() {
        let space = space();
        let slo = Slo::new(50.0, 120.0);
        let mut cache = EvalCache::new();
        let outcome = search(&space, &Synthetic, &slo, &config(), &mut cache);
        let best = outcome.best().expect("feasible candidates exist");
        // The landscape's argmin: largest cohorts, carbon-aware, no
        // fallback → grams = 10 - 4 - 0.5.
        assert_eq!(best.candidate().site_cohorts(), &[2, 2]);
        assert_eq!(best.candidate().routing(), 1);
        assert_eq!(best.candidate().fallback(), 0);
        // Every frontier point satisfies the SLO at the final fidelity.
        for planned in outcome.frontier() {
            assert!(planned.evaluation().meets(&slo), "{}", planned.label());
        }
        // The undersized all-small candidates were filtered by the SLO.
        for planned in outcome.frontier() {
            assert!(planned.evaluation().worst_median_ms() <= 50.0);
        }
        // Halving evaluated the full population once, survivors twice.
        assert_eq!(outcome.rung_populations()[0], 34);
        assert!(outcome.rung_populations()[1] < 34);
        // Elites re-submitted during mutation rounds produce cache hits.
        assert!(outcome.cache_hits() > 0);
        assert!(outcome.cache_hit_rate() > 0.0);
        // The synthetic evaluator simulates nothing.
        assert_eq!(outcome.slices_measured(), 0);
    }

    #[test]
    fn search_is_bit_identical_at_any_worker_count() {
        let space = space();
        let slo = Slo::new(50.0, 120.0);
        let serial = search(
            &space,
            &Synthetic,
            &slo,
            &config().parallelism(1),
            &mut EvalCache::new(),
        );
        for workers in [2, 3, 8] {
            let threaded = search(
                &space,
                &Synthetic,
                &slo,
                &config().parallelism(workers),
                &mut EvalCache::new(),
            );
            assert_eq!(serial, threaded, "worker count {workers}");
        }
    }

    #[test]
    fn cached_results_are_bit_identical_to_fresh_ones() {
        let space = space();
        let slo = Slo::new(50.0, 120.0);
        let mut cache = EvalCache::new();
        let first = search(&space, &Synthetic, &slo, &config(), &mut cache);
        // Re-scoring the argmin over the warm cache runs zero new
        // simulations and reproduces its final-fidelity evaluation.
        let entries = cache.len();
        let rerun = cache.score(
            &Synthetic,
            &[first.best().unwrap().candidate().clone()],
            first.final_fidelity(),
            2,
        );
        assert_eq!(cache.len(), entries, "warm cache re-evaluates nothing");
        assert_eq!(
            rerun[0].as_ref().unwrap(),
            first.best().unwrap().evaluation()
        );
    }

    #[test]
    fn outcome_counters_cover_only_this_search_on_a_warm_cache() {
        let space = space();
        let slo = Slo::new(50.0, 120.0);
        let mut cache = EvalCache::new();
        let cold = search(&space, &Synthetic, &slo, &config(), &mut cache);
        // Re-running over the warm cache: every lookup hits, nothing is
        // re-evaluated, and the reported counters are this run's own
        // traffic — not the cache's lifetime totals.
        let warm = search(&space, &Synthetic, &slo, &config(), &mut cache);
        assert_eq!(warm.fresh_evaluations(), 0);
        assert_eq!(warm.cache_misses(), 0);
        assert_eq!(
            warm.cache_hits(),
            cold.cache_hits() + cold.cache_misses(),
            "the warm run repeats the cold run's lookups, all as hits"
        );
        assert_eq!(warm.frontier(), cold.frontier());
    }

    #[test]
    fn pinned_candidates_survive_halving_to_the_frontier() {
        let space = space();
        let slo = Slo::new(50.0, 120.0);
        // Feasible only thanks to its leased fallback, with the smallest
        // non-zero fleet (2 devices) — non-dominated whenever scored, but
        // its carbon ranks far below the halving cutoff.
        let pinned = CandidateDeployment::new(vec![0, 1], 1, 0, 0, 1);
        let mut base = SearchConfig::new()
            .rungs(vec![Fidelity::coarse(), Fidelity::medium()])
            .local_search(1, 0, 1);
        // An aggressive halving cutoff: 5% of each rung, down to one.
        base.survivor_fraction = 0.05;
        base.min_survivors = 1;
        let without = search(&space, &Synthetic, &slo, &base, &mut EvalCache::new());
        assert!(
            !without.frontier().iter().any(|p| p.candidate() == &pinned),
            "an aggressive cutoff must drop the mid-ranked candidate"
        );
        let with = search(
            &space,
            &Synthetic,
            &slo,
            &base.pin(pinned.clone()),
            &mut EvalCache::new(),
        );
        assert!(
            with.frontier().iter().any(|p| p.candidate() == &pinned),
            "a pinned candidate is always scored at final fidelity"
        );
        // And a feasible pinned incumbent bounds the argmin from above.
        let best = with.best().unwrap().evaluation().grams_per_request();
        assert!(best.unwrap() <= Synthetic::grams(&pinned));
    }

    #[test]
    fn an_empty_feasible_set_yields_an_empty_frontier() {
        let space = space();
        // Impossible SLO: nothing passes.
        let slo = Slo::new(0.001, 0.001);
        let outcome = search(&space, &Synthetic, &slo, &config(), &mut EvalCache::new());
        assert!(outcome.frontier().is_empty());
        assert!(outcome.best().is_none());
    }
}
