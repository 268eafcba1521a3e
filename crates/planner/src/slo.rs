//! The service-level objective a deployment must meet to be admitted to
//! the planner's frontier.
//!
//! The SLO is a *hard constraint*, not an objective: a candidate that
//! violates any bound is discarded no matter how little carbon it emits.
//! The bounds mirror the paper's Figure 7 saturation criterion (median
//! and 90th-percentile latency ceilings) plus a shed ceiling so a
//! deployment cannot "meet" the latency bounds by refusing traffic.

use crate::evaluator::Evaluation;

/// Latency and availability bounds a candidate deployment must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    median_limit_ms: f64,
    tail_limit_ms: f64,
    max_shed_fraction: f64,
}

impl Slo {
    /// Creates an SLO with the given median and tail (90th percentile)
    /// latency ceilings in milliseconds and no tolerance for shed
    /// traffic.
    ///
    /// # Panics
    ///
    /// Panics if either bound is not strictly positive or the tail bound
    /// is below the median bound.
    #[must_use]
    pub fn new(median_limit_ms: f64, tail_limit_ms: f64) -> Self {
        assert!(median_limit_ms > 0.0, "median bound must be positive");
        assert!(
            tail_limit_ms >= median_limit_ms,
            "tail bound cannot be below the median bound"
        );
        Self {
            median_limit_ms,
            tail_limit_ms,
            max_shed_fraction: 0.0,
        }
    }

    /// The paper's Figure 7 saturation criterion: median ≤ 100 ms, tail
    /// ≤ 200 ms, with a 1 % shed ceiling for transient outage days.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(100.0, 200.0).shed_ceiling(0.01)
    }

    /// Sets the fraction of offered demand the deployment may shed (for
    /// example during device-failure outages) and still count as
    /// feasible.
    ///
    /// # Panics
    ///
    /// Panics if the ceiling is outside `[0, 1]`.
    #[must_use]
    pub fn shed_ceiling(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "shed ceiling must be in [0, 1]"
        );
        self.max_shed_fraction = fraction;
        self
    }

    /// Median latency ceiling, ms.
    #[must_use]
    pub fn median_limit_ms(&self) -> f64 {
        self.median_limit_ms
    }

    /// Tail (90th percentile) latency ceiling, ms.
    #[must_use]
    pub fn tail_limit_ms(&self) -> f64 {
        self.tail_limit_ms
    }

    /// Highest tolerated shed fraction of offered demand.
    #[must_use]
    pub fn max_shed_fraction(&self) -> f64 {
        self.max_shed_fraction
    }

    /// Whether an evaluation satisfies every bound. A deployment that
    /// served nothing at all (no requests) is never admitted: carbon per
    /// request is undefined there.
    #[must_use]
    pub fn admits(&self, evaluation: &Evaluation) -> bool {
        evaluation.grams_per_request().is_some()
            && evaluation.worst_median_ms() <= self.median_limit_ms
            && evaluation.worst_tail_ms() <= self.tail_limit_ms
            && evaluation.shed_fraction() <= self.max_shed_fraction + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(median: f64, tail: f64, shed: f64) -> Evaluation {
        Evaluation::new(Some(0.5), median, tail, tail * 1.5, shed, 10)
    }

    #[test]
    fn admits_only_within_every_bound() {
        let slo = Slo::new(50.0, 100.0).shed_ceiling(0.01);
        assert!(slo.admits(&eval(40.0, 90.0, 0.0)));
        assert!(!slo.admits(&eval(60.0, 90.0, 0.0)), "median violation");
        assert!(!slo.admits(&eval(40.0, 120.0, 0.0)), "tail violation");
        assert!(!slo.admits(&eval(40.0, 90.0, 0.05)), "shed violation");
        // Exactly on the bounds still passes.
        assert!(slo.admits(&eval(50.0, 100.0, 0.01)));
    }

    #[test]
    fn deployments_that_served_nothing_are_never_admitted() {
        let slo = Slo::new(50.0, 100.0).shed_ceiling(1.0);
        let starved = Evaluation::new(None, 0.0, 0.0, 0.0, 1.0, 0);
        assert!(!slo.admits(&starved));
    }

    #[test]
    #[should_panic(expected = "tail bound cannot be below")]
    fn inverted_bounds_panic() {
        let _ = Slo::new(100.0, 50.0);
    }
}
