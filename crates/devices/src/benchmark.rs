//! GeekBench-style microbenchmark identities and scores.
//!
//! The paper characterises every device with four GeekBench 4 workloads
//! (Table 1): SGEMM (Gflops), PDF rendering (Mpixels/s), Dijkstra (millions
//! of traversed edges per second) and memory copy (GB/s). Single-core and
//! multi-core throughputs are both recorded; the paper treats the multi-core
//! number as the device's total computational power.

use std::collections::BTreeMap;
use std::fmt;

use junkyard_carbon::ops::{OpUnit, Throughput};

/// One of the four microbenchmarks used throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Benchmark {
    /// Single-precision dense matrix multiply, measured in Gflops.
    Sgemm,
    /// PDF rasterisation, measured in Mpixels/s.
    PdfRender,
    /// Single-source shortest paths, measured in millions of traversed
    /// edges per second (MTE/s).
    Dijkstra,
    /// Large memory copy, measured in GB/s.
    MemoryCopy,
}

impl Benchmark {
    /// All benchmarks, in the order Table 1 lists them.
    pub const ALL: [Benchmark; 4] = [
        Benchmark::Sgemm,
        Benchmark::PdfRender,
        Benchmark::Dijkstra,
        Benchmark::MemoryCopy,
    ];

    /// The three benchmarks the paper plots CCI curves for (Figures 2 and 5).
    pub const CCI_FIGURES: [Benchmark; 3] =
        [Benchmark::Sgemm, Benchmark::PdfRender, Benchmark::Dijkstra];

    /// The unit of useful work this benchmark measures.
    #[must_use]
    pub fn op_unit(self) -> OpUnit {
        match self {
            Benchmark::Sgemm => OpUnit::Gflop,
            Benchmark::PdfRender => OpUnit::Mpixel,
            Benchmark::Dijkstra => OpUnit::MillionEdges,
            Benchmark::MemoryCopy => OpUnit::Gigabyte,
        }
    }

    /// Human-readable name as used in the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Sgemm => "SGEMM",
            Benchmark::PdfRender => "PDF Render",
            Benchmark::Dijkstra => "Dijkstra",
            Benchmark::MemoryCopy => "Memory Copy",
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Single-core and multi-core throughput of a device on one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkScore {
    benchmark: Benchmark,
    single_core: f64,
    multi_core: f64,
}

impl BenchmarkScore {
    /// Creates a score. Values are in the benchmark's natural unit per
    /// second (Gflops, Mpixels/s, MTE/s or GB/s).
    ///
    /// # Panics
    ///
    /// Panics if either value is negative, or if the multi-core score is
    /// lower than the single-core score (a physical impossibility for these
    /// throughput benchmarks).
    #[must_use]
    pub fn new(benchmark: Benchmark, single_core: f64, multi_core: f64) -> Self {
        assert!(
            single_core >= 0.0 && multi_core >= 0.0,
            "benchmark scores cannot be negative"
        );
        assert!(
            multi_core >= single_core,
            "multi-core throughput cannot be below single-core throughput"
        );
        Self {
            benchmark,
            single_core,
            multi_core,
        }
    }

    /// The benchmark this score belongs to.
    #[must_use]
    pub fn benchmark(self) -> Benchmark {
        self.benchmark
    }

    /// Single-core throughput in the benchmark's natural unit per second.
    #[must_use]
    pub fn single_core(self) -> f64 {
        self.single_core
    }

    /// Multi-core throughput in the benchmark's natural unit per second.
    /// The paper uses this as the device's total computational power.
    #[must_use]
    pub fn multi_core(self) -> f64 {
        self.multi_core
    }

    /// Multi-core throughput as a typed [`Throughput`].
    #[must_use]
    pub fn multi_core_throughput(self) -> Throughput {
        Throughput::per_second(self.multi_core, self.benchmark.op_unit())
    }
}

/// The full set of benchmark scores for one device.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchmarkSuite {
    scores: BTreeMap<Benchmark, BenchmarkScore>,
}

impl BenchmarkSuite {
    /// Creates an empty suite.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a score (builder style); replaces any existing score for the
    /// same benchmark.
    #[must_use]
    pub fn with_score(mut self, benchmark: Benchmark, single: f64, multi: f64) -> Self {
        self.insert(BenchmarkScore::new(benchmark, single, multi));
        self
    }

    /// Inserts a score, replacing any existing entry for the same benchmark.
    pub fn insert(&mut self, score: BenchmarkScore) {
        self.scores.insert(score.benchmark(), score);
    }

    /// Looks up the score for a benchmark.
    #[must_use]
    pub fn get(&self, benchmark: Benchmark) -> Option<BenchmarkScore> {
        self.scores.get(&benchmark).copied()
    }

    /// Iterates over scores in [`Benchmark`] order.
    pub fn iter(&self) -> impl Iterator<Item = BenchmarkScore> + '_ {
        self.scores.values().copied()
    }

    /// Number of benchmarks with a recorded score.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// `true` if no scores are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// How many of this device are needed to match `baseline`'s multi-core
    /// throughput on `benchmark` — the `N` column of Table 1.
    ///
    /// Returns `None` when either device lacks a score for the benchmark or
    /// this device's throughput is zero.
    #[must_use]
    pub fn devices_to_match(&self, baseline: &BenchmarkSuite, benchmark: Benchmark) -> Option<u32> {
        let ours = self.get(benchmark)?.multi_core();
        let theirs = baseline.get(benchmark)?.multi_core();
        if ours <= 0.0 {
            return None;
        }
        Some((theirs / ours).ceil().max(1.0) as u32)
    }
}

impl FromIterator<BenchmarkScore> for BenchmarkSuite {
    fn from_iter<T: IntoIterator<Item = BenchmarkScore>>(iter: T) -> Self {
        let mut suite = Self::new();
        for score in iter {
            suite.insert(score);
        }
        suite
    }
}

impl Extend<BenchmarkScore> for BenchmarkSuite {
    fn extend<T: IntoIterator<Item = BenchmarkScore>>(&mut self, iter: T) {
        for score in iter {
            self.insert(score);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poweredge() -> BenchmarkSuite {
        BenchmarkSuite::new()
            .with_score(Benchmark::Sgemm, 77.2, 2070.0)
            .with_score(Benchmark::PdfRender, 109.1, 3140.0)
            .with_score(Benchmark::Dijkstra, 3.58, 80.2)
            .with_score(Benchmark::MemoryCopy, 6.33, 19.5)
    }

    fn pixel_3a() -> BenchmarkSuite {
        BenchmarkSuite::new()
            .with_score(Benchmark::Sgemm, 8.84, 39.0)
            .with_score(Benchmark::PdfRender, 38.9, 147.0)
            .with_score(Benchmark::Dijkstra, 1.08, 4.44)
            .with_score(Benchmark::MemoryCopy, 4.00, 5.45)
    }

    #[test]
    fn op_units_match_paper() {
        assert_eq!(Benchmark::Sgemm.op_unit(), OpUnit::Gflop);
        assert_eq!(Benchmark::PdfRender.op_unit(), OpUnit::Mpixel);
        assert_eq!(Benchmark::Dijkstra.op_unit(), OpUnit::MillionEdges);
        assert_eq!(Benchmark::MemoryCopy.op_unit(), OpUnit::Gigabyte);
    }

    #[test]
    fn table1_n_for_pixel_sgemm_is_54() {
        let n = pixel_3a()
            .devices_to_match(&poweredge(), Benchmark::Sgemm)
            .unwrap();
        assert_eq!(n, 54);
    }

    #[test]
    fn table1_n_for_pixel_pdf_is_22() {
        let n = pixel_3a()
            .devices_to_match(&poweredge(), Benchmark::PdfRender)
            .unwrap();
        assert_eq!(n, 22);
    }

    #[test]
    fn baseline_matches_itself_with_one_device() {
        let n = poweredge()
            .devices_to_match(&poweredge(), Benchmark::Sgemm)
            .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn missing_score_yields_none() {
        let empty = BenchmarkSuite::new();
        assert!(empty
            .devices_to_match(&poweredge(), Benchmark::Sgemm)
            .is_none());
        assert!(empty.get(Benchmark::Sgemm).is_none());
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "multi-core throughput cannot be below single-core")]
    fn multi_below_single_panics() {
        let _ = BenchmarkScore::new(Benchmark::Sgemm, 10.0, 5.0);
    }

    #[test]
    fn suite_collects_and_iterates_in_order() {
        let suite: BenchmarkSuite = [
            BenchmarkScore::new(Benchmark::MemoryCopy, 1.0, 2.0),
            BenchmarkScore::new(Benchmark::Sgemm, 1.0, 2.0),
        ]
        .into_iter()
        .collect();
        let order: Vec<Benchmark> = suite.iter().map(BenchmarkScore::benchmark).collect();
        assert_eq!(order, vec![Benchmark::Sgemm, Benchmark::MemoryCopy]);
        assert_eq!(suite.len(), 2);
    }

    #[test]
    fn throughput_conversion_keeps_unit() {
        let t = pixel_3a()
            .get(Benchmark::Dijkstra)
            .unwrap()
            .multi_core_throughput();
        assert_eq!(t.unit(), OpUnit::MillionEdges);
        assert!((t.rate() - 4.44).abs() < 1e-12);
    }
}
