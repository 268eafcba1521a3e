//! The black-box evaluation layer: what it costs to score a batch of
//! candidates, at what fidelity, and the memo cache that makes revisits
//! free.
//!
//! The search engine never builds simulations itself — it hands each
//! batch to [`EvalCache::score`], which serves repeats from the cache and
//! passes the genuinely new candidates to an [`Evaluator`] as one batch.
//! An evaluation must be a *pure function* of `(candidate, fidelity)`:
//! the successive-halving rungs and the mutation loop both rely on cached
//! results being bit-identical to fresh ones, and the parallel fan-out
//! relies on results not depending on which worker computed them or
//! which batch they were scored in. The [`EvalCache`] also owns the
//! search's one slice table, so a lifecycle evaluator measures each
//! microsim slice once per search.

use std::collections::{BTreeMap, HashMap};

use junkyard_fleet::lifecycle::{LifecycleConfig, MeasuredSlices};

use crate::candidate::CandidateDeployment;
use crate::slo::Slo;

/// How much simulated time a candidate is scored over — the
/// successive-halving resource axis. Coarse rungs run a couple of days
/// at few windows; survivors earn longer horizons and finer slices. A
/// fidelity holds the [`LifecycleConfig`] it describes, so the config's
/// own checks are the only ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    config: LifecycleConfig,
    horizon_days: usize,
    key: u64,
}

impl Fidelity {
    /// Creates a fidelity level: `horizon_days` days of
    /// `windows_per_day` routing windows, each measured over a
    /// `sim_slice_s`-second slice after `warmup_s` seconds of warm-up.
    ///
    /// # Panics
    ///
    /// Panics where [`LifecycleConfig`] does: a zero horizon or window
    /// count, or a slice and warm-up that are not whole seconds (the
    /// lifecycle engine buckets utilisation per second) with a strictly
    /// positive slice.
    #[must_use]
    pub fn new(
        horizon_days: usize,
        windows_per_day: usize,
        sim_slice_s: f64,
        warmup_s: f64,
    ) -> Self {
        let config = LifecycleConfig::days(horizon_days)
            .windows_per_day(windows_per_day)
            .sim_slice_s(sim_slice_s)
            .warmup_s(warmup_s);
        // Whole-second slices and warm-ups make the float fields exactly
        // representable as integers.
        let mut key = horizon_days as u64;
        for field in [windows_per_day as u64, sim_slice_s as u64, warmup_s as u64] {
            key = key.wrapping_mul(0x1_0001).wrapping_add(field);
        }
        Self {
            config,
            horizon_days,
            key,
        }
    }

    /// The cheapest useful score: two days, two routing windows per day,
    /// one-second slices, no warm-up.
    #[must_use]
    pub fn coarse() -> Self {
        Self::new(2, 2, 1.0, 0.0)
    }

    /// A week at four windows per day with a warm-up second.
    #[must_use]
    pub fn medium() -> Self {
        Self::new(7, 4, 1.0, 1.0)
    }

    /// Four weeks at six windows per day — long enough for battery wear
    /// and failures to register in the ranking.
    #[must_use]
    pub fn fine() -> Self {
        Self::new(28, 6, 2.0, 1.0)
    }

    /// Simulated days.
    #[must_use]
    pub fn horizon_days(&self) -> usize {
        self.horizon_days
    }

    /// The lifecycle run config this fidelity describes, at the
    /// config's default seed and worker cap.
    #[must_use]
    pub fn config(&self) -> LifecycleConfig {
        self.config
    }

    /// A stable key for cache maps, distinct for every level.
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }
}

/// What one candidate scored at one fidelity: the carbon objective, the
/// SLO-relevant latencies and shed, and the frontier's secondary axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    grams_per_request: Option<f64>,
    worst_median_ms: f64,
    worst_tail_ms: f64,
    worst_p99_ms: f64,
    shed_fraction: f64,
    devices: usize,
}

impl Evaluation {
    /// Assembles an evaluation from measured results.
    #[must_use]
    pub fn new(
        grams_per_request: Option<f64>,
        worst_median_ms: f64,
        worst_tail_ms: f64,
        worst_p99_ms: f64,
        shed_fraction: f64,
        devices: usize,
    ) -> Self {
        Self {
            grams_per_request,
            worst_median_ms,
            worst_tail_ms,
            worst_p99_ms,
            shed_fraction,
            devices,
        }
    }

    /// The objective: amortised grams of CO2e per served request, or
    /// `None` when the deployment served nothing.
    #[must_use]
    pub fn grams_per_request(&self) -> Option<f64> {
        self.grams_per_request
    }

    /// Worst measured median latency across the horizon, ms.
    #[must_use]
    pub fn worst_median_ms(&self) -> f64 {
        self.worst_median_ms
    }

    /// Worst measured tail (90th percentile) latency, ms.
    #[must_use]
    pub fn worst_tail_ms(&self) -> f64 {
        self.worst_tail_ms
    }

    /// Worst measured 99th-percentile latency, ms — a frontier axis.
    #[must_use]
    pub fn worst_p99_ms(&self) -> f64 {
        self.worst_p99_ms
    }

    /// Fraction of offered demand that was shed.
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        self.shed_fraction
    }

    /// Phones the candidate provisions — a frontier axis.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Whether this evaluation satisfies `slo` (see [`Slo::admits`]).
    #[must_use]
    pub fn meets(&self, slo: &Slo) -> bool {
        slo.admits(self)
    }
}

/// Why a candidate could not be scored. Failures are deterministic
/// properties of the candidate (a cohort the placement cannot fit, a
/// workload the application does not define), so they are cached like
/// successes and simply excluded from ranking.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The candidate's deployment could not be assembled.
    Build(String),
    /// The simulation rejected the run.
    Sim(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Build(why) => write!(f, "candidate build failed: {why}"),
            EvalError::Sim(why) => write!(f, "candidate simulation failed: {why}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A black-box scorer of candidate deployments.
///
/// `Sync` because evaluations fan out across scoped worker threads.
/// Implementations must be pure: the same `(candidate, fidelity)` pair
/// must always produce the same result, alone or in any batch.
pub trait Evaluator: Sync {
    /// Scores a batch of candidates at one fidelity on up to `workers`
    /// threads; the `i`-th result is the `i`-th candidate's. `slices` is
    /// the search's slice table: an evaluator that runs lifecycle
    /// simulations measures each slice it lacks once for the whole batch
    /// and keeps it for later batches.
    ///
    /// A candidate that cannot be assembled or simulated scores an
    /// [`EvalError`]; the search treats it as infeasible.
    fn evaluate(
        &self,
        candidates: &[&CandidateDeployment],
        fidelity: Fidelity,
        slices: &mut MeasuredSlices,
        workers: usize,
    ) -> Vec<Result<Evaluation, EvalError>>;

    /// A cheap estimate of the fraction of the horizon's offered demand
    /// the candidate must shed because its load within the SLO's latency
    /// bounds falls short of the demand curve, if the evaluator can make
    /// one (for example from per-cohort saturation sweeps). The search
    /// prunes a candidate whose estimate exceeds the SLO's shed ceiling
    /// before any simulation, so the estimate must never exceed the shed
    /// an evaluation would measure: a candidate that only sheds a sliver
    /// of demand at the daily peak must *not* be pruned. `None` means
    /// "unknown — do not prune".
    fn projected_shed(&self, candidate: &CandidateDeployment, slo: &Slo) -> Option<f64> {
        let _ = (candidate, slo);
        None
    }
}

/// The memoised evaluation store, keyed by `(candidate fingerprint,
/// fidelity key)`, and the search's slice table. All bookkeeping happens
/// serially between parallel batches, so hit/miss and slice counts — not
/// just cached values — are identical at any worker count.
#[derive(Debug, Default)]
pub struct EvalCache {
    // The cache is only ever probed by exact (fingerprint, fidelity)
    // key and never iterated, so hash order is unobservable.
    entries: HashMap<(u64, u64), Result<Evaluation, EvalError>>,
    hits: u64,
    misses: u64,
    /// Every microsim slice the cache's evaluations measured, kept for
    /// the batches after them.
    slices: MeasuredSlices,
}

impl EvalCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Scores `batch` at `fidelity`, serving repeats from the cache and
    /// handing only the genuinely new candidates, deduplicated by
    /// fingerprint, to `evaluator` as one [`Evaluator::evaluate`] batch
    /// on up to `workers` threads against the cache's slice table. Each
    /// batch slot counts as one hit or one miss, and each distinct
    /// candidate that missed becomes one new entry. Batch composition,
    /// bookkeeping and result placement are all serial, so results and
    /// counters are identical at any worker count.
    pub fn score<E: Evaluator + ?Sized>(
        &mut self,
        evaluator: &E,
        batch: &[CandidateDeployment],
        fidelity: Fidelity,
        workers: usize,
    ) -> Vec<Result<Evaluation, EvalError>> {
        let mut slots: Vec<Option<Result<Evaluation, EvalError>>> = vec![None; batch.len()];
        // Serial pass: serve cached results, dedup the rest by fingerprint.
        let mut pending: Vec<&CandidateDeployment> = Vec::new();
        // Fingerprints are probed by key; batch order alone decides
        // result placement.
        let mut pending_of: BTreeMap<u64, usize> = BTreeMap::new();
        let mut followers: Vec<(usize, usize)> = Vec::new();
        for (index, candidate) in batch.iter().enumerate() {
            if let Some(result) = self.entries.get(&(candidate.fingerprint(), fidelity.key())) {
                self.hits += 1;
                slots[index] = Some(result.clone());
                continue;
            }
            self.misses += 1;
            let position = *pending_of
                .entry(candidate.fingerprint())
                .or_insert_with(|| {
                    pending.push(candidate);
                    pending.len() - 1
                });
            followers.push((index, position));
        }

        // The pending set, scored as one batch, then persisted and placed.
        let results = evaluator.evaluate(&pending, fidelity, &mut self.slices, workers);
        for (candidate, result) in pending.iter().zip(&results) {
            self.entries
                .insert((candidate.fingerprint(), fidelity.key()), result.clone());
        }
        for (slot, position) in followers {
            slots[slot] = Some(results[position].clone());
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every batch slot is filled"))
            .collect()
    }

    /// Lookups served from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a fresh evaluation.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Distinct `(candidate, fidelity)` results stored: one per fresh
    /// evaluation.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been stored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Distinct microsim slices the cache's evaluations measured.
    pub(crate) fn slices_measured(&self) -> usize {
        self.slices.len()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    #[test]
    fn fidelity_keys_distinguish_every_level() {
        let levels = [
            Fidelity::coarse(),
            Fidelity::medium(),
            Fidelity::fine(),
            Fidelity::new(2, 2, 2.0, 0.0),
            Fidelity::new(2, 4, 1.0, 0.0),
            Fidelity::new(4, 2, 1.0, 0.0),
            Fidelity::new(2, 2, 1.0, 1.0),
        ];
        for (i, a) in levels.iter().enumerate() {
            for (j, b) in levels.iter().enumerate().skip(i + 1) {
                assert_ne!(a.key(), b.key(), "levels {i} and {j} collide");
            }
        }
        // The cache keys themselves are pinned.
        assert_eq!(Fidelity::coarse().key(), 562_984_313_880_581);
        assert_eq!(Fidelity::medium().key(), 1_970_432_213_123_085);
        assert_eq!(Fidelity::fine().key(), 7_881_685_901_377_573);
        assert_eq!(Fidelity::new(4, 2, 1.0, 0.0).key(), 1_125_960_037_498_887);
    }

    /// Scores every candidate it is handed (its devices are its cohort
    /// indices' sum, so different candidates score differently) and
    /// records each one.
    #[derive(Default)]
    struct Recording {
        scored: Mutex<Vec<CandidateDeployment>>,
    }

    impl Evaluator for Recording {
        fn evaluate(
            &self,
            candidates: &[&CandidateDeployment],
            _: Fidelity,
            _: &mut MeasuredSlices,
            _: usize,
        ) -> Vec<Result<Evaluation, EvalError>> {
            let mut scored = self.scored.lock().unwrap();
            candidates
                .iter()
                .map(|&candidate| {
                    scored.push(candidate.clone());
                    let devices = candidate.site_cohorts().iter().sum();
                    Ok(Evaluation::new(Some(1.0), 5.0, 9.0, 12.0, 0.0, devices))
                })
                .collect()
        }
    }

    #[test]
    fn cache_counts_hits_and_misses_deterministically() {
        let evaluator = Recording::default();
        let mut cache = EvalCache::new();
        let candidate = CandidateDeployment::new(vec![0], 0, 0, 0, 0);
        let batch = std::slice::from_ref(&candidate);
        let fresh = cache.score(&evaluator, batch, Fidelity::coarse(), 1);
        assert_eq!(cache.score(&evaluator, batch, Fidelity::coarse(), 1), fresh);
        // A finer fidelity is a distinct entry.
        let _ = cache.score(&evaluator, batch, Fidelity::fine(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(evaluator.scored.lock().unwrap().len(), 2);
    }

    #[test]
    fn score_evaluates_a_repeated_candidate_once_and_serves_a_cached_one() {
        let a = CandidateDeployment::new(vec![1, 0], 0, 0, 0, 0);
        let b = CandidateDeployment::new(vec![2, 2], 0, 0, 0, 0);
        let fidelity = Fidelity::coarse();
        let evaluator = Recording::default();
        let mut cache = EvalCache::new();
        let cached_b = cache.score(&evaluator, std::slice::from_ref(&b), fidelity, 1);
        let scored = cache.score(&evaluator, &[a.clone(), a.clone(), b.clone()], fidelity, 1);
        // B was evaluated by the first batch only, A once for both slots.
        assert_eq!(*evaluator.scored.lock().unwrap(), [b, a]);
        assert_eq!(scored[0], scored[1]);
        assert_ne!(scored[0], scored[2]);
        assert_eq!(scored[2], cached_b[0]);
        // B's slot is the one hit; each A slot is a miss, one new entry.
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 3, 2));
    }

    #[test]
    #[should_panic(expected = "whole number of seconds")]
    fn fractional_slices_panic() {
        let _ = Fidelity::new(1, 1, 0.5, 0.0);
    }
}
