//! Measurement containers: latency distributions and per-node CPU
//! utilisation traces.

use junkyard_carbon::convert::{count_f64, counts_ratio, floor_index, percentile_rank};

/// A latency distribution, in milliseconds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyStats {
    sorted_ms: Vec<f64>,
}

impl LatencyStats {
    /// Builds statistics from raw latency samples (milliseconds).
    #[must_use]
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self { sorted_ms: samples }
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.sorted_ms.len()
    }

    /// `true` when no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted_ms.is_empty()
    }

    /// The `p`-th percentile (0–100), or `None` for an empty distribution.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.sorted_ms.is_empty() {
            return None;
        }
        let (lo, hi, frac) = percentile_rank(p, self.sorted_ms.len());
        Some(self.sorted_ms[lo] * (1.0 - frac) + self.sorted_ms[hi] * frac)
    }

    /// Median latency in ms (the paper's "Median" row of Figure 7).
    #[must_use]
    pub fn median_ms(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// 90th-percentile latency in ms (the paper's "Tail" row of Figure 7).
    #[must_use]
    pub fn tail_ms(&self) -> Option<f64> {
        self.percentile(90.0)
    }

    /// 99th-percentile latency in ms — the extreme-tail axis the planner's
    /// Pareto frontier reports alongside carbon per request.
    #[must_use]
    pub fn p99_ms(&self) -> Option<f64> {
        self.percentile(99.0)
    }

    /// Mean latency in ms.
    #[must_use]
    pub fn mean_ms(&self) -> Option<f64> {
        if self.sorted_ms.is_empty() {
            None
        } else {
            Some(self.sorted_ms.iter().sum::<f64>() / count_f64(self.sorted_ms.len()))
        }
    }

    /// Maximum latency in ms.
    #[must_use]
    pub fn max_ms(&self) -> Option<f64> {
        self.sorted_ms.last().copied()
    }
}

/// Per-second CPU utilisation of one node, split into user (service work)
/// and system (RPC handling) time, as plotted per phone in Figure 8.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeUtilization {
    node: String,
    cores: u32,
    user_core_seconds: Vec<f64>,
    sys_core_seconds: Vec<f64>,
}

impl NodeUtilization {
    /// Creates an empty trace of `buckets` one-second buckets for a node
    /// with `cores` cores.
    #[must_use]
    pub fn new(node: impl Into<String>, cores: u32, buckets: usize) -> Self {
        Self {
            node: node.into(),
            cores,
            user_core_seconds: vec![0.0; buckets],
            sys_core_seconds: vec![0.0; buckets],
        }
    }

    /// Builds a trace from pre-accumulated per-second core-seconds — the
    /// compiled engine accumulates into dense arrays and wraps them here.
    ///
    /// # Panics
    ///
    /// Panics if the user and system traces differ in length.
    #[must_use]
    pub fn from_core_seconds(
        node: impl Into<String>,
        cores: u32,
        user_core_seconds: Vec<f64>,
        sys_core_seconds: Vec<f64>,
    ) -> Self {
        assert_eq!(
            user_core_seconds.len(),
            sys_core_seconds.len(),
            "user and system traces must cover the same buckets"
        );
        Self {
            node: node.into(),
            cores,
            user_core_seconds,
            sys_core_seconds,
        }
    }

    /// Node name.
    #[must_use]
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Adds `core_seconds` of user time at second `at`.
    pub fn add_user(&mut self, at: f64, core_seconds: f64) {
        let idx = Self::bucket(at, self.user_core_seconds.len());
        self.user_core_seconds[idx] += core_seconds;
    }

    /// Adds `core_seconds` of system time at second `at`.
    pub fn add_sys(&mut self, at: f64, core_seconds: f64) {
        let idx = Self::bucket(at, self.sys_core_seconds.len());
        self.sys_core_seconds[idx] += core_seconds;
    }

    fn bucket(at: f64, len: usize) -> usize {
        floor_index(at).min(len.saturating_sub(1))
    }

    /// Number of one-second buckets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.user_core_seconds.len()
    }

    /// `true` if the trace has no buckets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.user_core_seconds.is_empty()
    }

    /// User CPU percentage in bucket `i` (0–100, capped).
    #[must_use]
    pub fn user_percent(&self, i: usize) -> f64 {
        (self.user_core_seconds[i] / f64::from(self.cores) * 100.0).min(100.0)
    }

    /// System CPU percentage in bucket `i` (0–100, capped).
    #[must_use]
    pub fn sys_percent(&self, i: usize) -> f64 {
        (self.sys_core_seconds[i] / f64::from(self.cores) * 100.0).min(100.0)
    }

    /// Total CPU percentage in bucket `i` (0–100, capped).
    #[must_use]
    pub fn total_percent(&self, i: usize) -> f64 {
        (self.user_percent(i) + self.sys_percent(i)).min(100.0)
    }

    /// Mean total utilisation over the bucket range `[from, to)`, percent.
    #[must_use]
    pub fn mean_percent_between(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.len());
        if from >= to {
            return 0.0;
        }
        (from..to).map(|i| self.total_percent(i)).sum::<f64>() / count_f64(to - from)
    }
}

/// Per-node queue accounting: how many calls arrived at the node, how many
/// finished application service, and how many each of its queues dropped.
///
/// Both engines maintain these counters unconditionally (they are cheap),
/// so the per-node conservation law `calls_arrived == calls_served +
/// dropped` holds for every run; drops can only be nonzero when the
/// simulation's [`crate::sim::ServerModel`] bounds its queues.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeQueueStats {
    node: String,
    calls_arrived: u64,
    calls_served: u64,
    queue_drops: Vec<u64>,
}

impl NodeQueueStats {
    /// Assembles one node's queue counters. `queue_drops` has one entry per
    /// queue of the node (a single entry under centralised FCFS, one per
    /// application core under distributed FCFS).
    #[must_use]
    pub fn new(
        node: impl Into<String>,
        calls_arrived: u64,
        calls_served: u64,
        queue_drops: Vec<u64>,
    ) -> Self {
        Self {
            node: node.into(),
            calls_arrived,
            calls_served,
            queue_drops,
        }
    }

    /// Node name.
    #[must_use]
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Calls that reached the node (admitted or dropped).
    #[must_use]
    pub fn calls_arrived(&self) -> u64 {
        self.calls_arrived
    }

    /// Calls whose application service completed on the node.
    #[must_use]
    pub fn calls_served(&self) -> u64 {
        self.calls_served
    }

    /// Drops per queue, indexed by queue id.
    #[must_use]
    pub fn queue_drops(&self) -> &[u64] {
        &self.queue_drops
    }

    /// Total calls dropped by the node's queues.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.queue_drops.iter().sum()
    }
}

/// A completed request: when it arrived and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedRequest {
    arrival_s: f64,
    latency_ms: f64,
}

impl CompletedRequest {
    /// Creates a completion record.
    #[must_use]
    pub fn new(arrival_s: f64, latency_ms: f64) -> Self {
        Self {
            arrival_s,
            latency_ms,
        }
    }

    /// Arrival time of the request, seconds from the start of the run.
    #[must_use]
    pub fn arrival_s(self) -> f64 {
        self.arrival_s
    }

    /// End-to-end latency in milliseconds.
    #[must_use]
    pub fn latency_ms(self) -> f64 {
        self.latency_ms
    }
}

/// Full result of one simulation run.
///
/// lint: conserved — every numeric field below must be pinned by a test
/// under `tests/` (the conservation audit fails otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    duration_s: f64,
    offered: usize,
    events: u64,
    completions: Vec<CompletedRequest>,
    node_utilization: Vec<NodeUtilization>,
    dropped_arrivals: Vec<f64>,
    queue_stats: Vec<NodeQueueStats>,
}

impl RunMetrics {
    /// Assembles run metrics (with an event count of zero; engines attach
    /// theirs via [`RunMetrics::with_events`]).
    #[must_use]
    pub fn new(
        duration_s: f64,
        offered: usize,
        completions: Vec<CompletedRequest>,
        node_utilization: Vec<NodeUtilization>,
    ) -> Self {
        Self {
            duration_s,
            offered,
            events: 0,
            completions,
            node_utilization,
            dropped_arrivals: Vec::new(),
            queue_stats: Vec::new(),
        }
    }

    /// Attaches the number of discrete events the engine processed —
    /// the denominator of the events-per-second throughput figure the
    /// `perf_report` harness tracks.
    #[must_use]
    pub fn with_events(mut self, events: u64) -> Self {
        self.events = events;
        self
    }

    /// Attaches queue accounting: the arrival times of requests that were
    /// terminated by a queue drop (in termination order) and the per-node
    /// counters. Both engines attach these for every run.
    #[must_use]
    pub fn with_queue_stats(
        mut self,
        dropped_arrivals: Vec<f64>,
        queue_stats: Vec<NodeQueueStats>,
    ) -> Self {
        self.dropped_arrivals = dropped_arrivals;
        self.queue_stats = queue_stats;
        self
    }

    /// Number of discrete events the engine processed during the run.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Simulated duration in seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// Number of requests offered by the load generator.
    #[must_use]
    pub fn offered(&self) -> usize {
        self.offered
    }

    /// Completed requests with their arrival times and latencies.
    #[must_use]
    pub fn completions(&self) -> &[CompletedRequest] {
        &self.completions
    }

    /// Per-node CPU utilisation traces.
    #[must_use]
    pub fn node_utilization(&self) -> &[NodeUtilization] {
        &self.node_utilization
    }

    /// Number of requests terminated by a queue drop.
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.dropped_arrivals.len()
    }

    /// Arrival times of dropped requests, in termination order.
    #[must_use]
    pub fn dropped_arrivals(&self) -> &[f64] {
        &self.dropped_arrivals
    }

    /// Number of dropped requests that *arrived* in `[from, to)` seconds —
    /// the companion of [`RunMetrics::latency_stats_between`] for slicing
    /// out warm-up.
    #[must_use]
    pub fn dropped_between(&self, from_s: f64, to_s: f64) -> usize {
        self.dropped_arrivals
            .iter()
            .filter(|&&a| a >= from_s && a < to_s)
            .count()
    }

    /// Fraction of offered requests terminated by a queue drop.
    #[must_use]
    pub fn drop_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            counts_ratio(self.dropped_arrivals.len(), self.offered)
        }
    }

    /// Fraction of the requests that *arrived* in `[from, to)` seconds
    /// which were terminated by a queue drop — the slice-local companion
    /// of [`RunMetrics::drop_fraction`] for skipping warm-up. An empty
    /// slice (nothing arrived) reports `0.0` rather than `NaN`, so
    /// zero-offered windows never poison downstream extrapolation.
    #[must_use]
    pub fn drop_fraction_between(&self, from_s: f64, to_s: f64) -> f64 {
        let completed = self
            .completions
            .iter()
            .filter(|c| c.arrival_s() >= from_s && c.arrival_s() < to_s)
            .count();
        let dropped = self.dropped_between(from_s, to_s);
        let measured = completed + dropped;
        if measured == 0 {
            0.0
        } else {
            counts_ratio(dropped, measured)
        }
    }

    /// Per-node queue counters (arrived / served / dropped per queue).
    #[must_use]
    pub fn queue_stats(&self) -> &[NodeQueueStats] {
        &self.queue_stats
    }

    /// Latency distribution of every completed request.
    #[must_use]
    pub fn latency_stats(&self) -> LatencyStats {
        LatencyStats::from_samples(self.completions.iter().map(|c| c.latency_ms()).collect())
    }

    /// Latency distribution of requests that *arrived* in `[from, to)`
    /// seconds — used to skip warm-up and to slice phases.
    #[must_use]
    pub fn latency_stats_between(&self, from_s: f64, to_s: f64) -> LatencyStats {
        LatencyStats::from_samples(
            self.completions
                .iter()
                .filter(|c| c.arrival_s() >= from_s && c.arrival_s() < to_s)
                .map(|c| c.latency_ms())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_known_distribution() {
        let stats = LatencyStats::from_samples((1..=100).map(f64::from).collect());
        assert!((stats.median_ms().unwrap() - 50.5).abs() < 1e-9);
        assert!((stats.tail_ms().unwrap() - 90.1).abs() < 0.2);
        assert!((stats.mean_ms().unwrap() - 50.5).abs() < 1e-9);
        assert_eq!(stats.max_ms(), Some(100.0));
        assert_eq!(stats.count(), 100);
    }

    #[test]
    fn empty_stats_return_none() {
        let stats = LatencyStats::from_samples(vec![]);
        assert!(stats.is_empty());
        assert!(stats.median_ms().is_none());
        assert!(stats.mean_ms().is_none());
        assert!(stats.max_ms().is_none());
    }

    #[test]
    fn utilization_buckets_and_caps() {
        let mut u = NodeUtilization::new("pixel-00", 8, 10);
        u.add_user(2.3, 4.0);
        u.add_sys(2.7, 0.8);
        assert!((u.user_percent(2) - 50.0).abs() < 1e-9);
        assert!((u.sys_percent(2) - 10.0).abs() < 1e-9);
        assert!((u.total_percent(2) - 60.0).abs() < 1e-9);
        assert_eq!(u.total_percent(3), 0.0);
        // Overflow caps at 100 %.
        u.add_user(5.0, 100.0);
        assert_eq!(u.total_percent(5), 100.0);
        // Out-of-range samples clamp to the last bucket.
        u.add_user(99.0, 1.0);
        assert!(u.user_percent(9) > 0.0);
        assert!((u.mean_percent_between(2, 3) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn from_core_seconds_matches_incremental_adds() {
        let mut incremental = NodeUtilization::new("pixel-00", 8, 4);
        incremental.add_user(1.2, 2.0);
        incremental.add_sys(1.8, 0.5);
        let bulk = NodeUtilization::from_core_seconds(
            "pixel-00",
            8,
            vec![0.0, 2.0, 0.0, 0.0],
            vec![0.0, 0.5, 0.0, 0.0],
        );
        assert_eq!(incremental, bulk);
    }

    #[test]
    #[should_panic(expected = "same buckets")]
    fn mismatched_core_second_traces_panic() {
        let _ = NodeUtilization::from_core_seconds("x", 1, vec![0.0], vec![]);
    }

    #[test]
    fn run_metrics_slicing() {
        let completions = vec![
            CompletedRequest::new(0.5, 10.0),
            CompletedRequest::new(1.5, 20.0),
            CompletedRequest::new(2.5, 30.0),
        ];
        let metrics = RunMetrics::new(3.0, 5, completions, vec![]).with_events(12);
        assert_eq!(metrics.offered(), 5);
        assert_eq!(metrics.events_processed(), 12);
        assert_eq!(metrics.latency_stats().count(), 3);
        let sliced = metrics.latency_stats_between(1.0, 3.0);
        assert_eq!(sliced.count(), 2);
        assert!((sliced.median_ms().unwrap() - 25.0).abs() < 1e-9);
        assert_eq!(metrics.dropped(), 0);
        assert_eq!(metrics.drop_fraction(), 0.0);
    }

    #[test]
    fn queue_stats_account_drops() {
        let stats = NodeQueueStats::new("pixel-00", 10, 7, vec![1, 0, 2]);
        assert_eq!(stats.node(), "pixel-00");
        assert_eq!(stats.dropped(), 3);
        assert_eq!(
            stats.calls_arrived(),
            stats.calls_served() + stats.dropped()
        );
        let metrics = RunMetrics::new(3.0, 8, vec![], vec![])
            .with_queue_stats(vec![0.4, 1.6], vec![stats.clone()]);
        assert_eq!(metrics.dropped(), 2);
        assert_eq!(metrics.dropped_between(0.0, 1.0), 1);
        assert_eq!(metrics.dropped_between(1.0, 3.0), 1);
        assert!((metrics.drop_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(metrics.queue_stats(), &[stats]);
    }
}
