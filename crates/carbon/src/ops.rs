//! Units of computational work.
//!
//! CCI divides lifetime carbon by lifetime *useful work*, and the unit of
//! work depends on the benchmark: SGEMM counts floating-point operations,
//! PDF rendering counts pixels, Dijkstra counts traversed edges, memory copy
//! counts bytes, and end-to-end microservice benchmarks count requests
//! (Section 3.4 of the paper). [`OpUnit`] names the unit and [`Throughput`] /
//! [`OpCount`] carry values tagged with it so that work from different
//! benchmarks cannot be silently mixed.

use std::fmt;
use std::ops::{Add, Mul};

use crate::units::TimeSpan;

/// The kind of work a benchmark measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum OpUnit {
    /// Billions of floating point operations (SGEMM).
    Gflop,
    /// Millions of rendered pixels (PDF rendering).
    Mpixel,
    /// Millions of traversed edges (Dijkstra).
    MillionEdges,
    /// Gigabytes copied (memory copy).
    Gigabyte,
    /// End-to-end application requests (DeathStarBench).
    Request,
}

impl OpUnit {
    /// Short unit label used in table headers (for example `"gflop"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OpUnit::Gflop => "gflop",
            OpUnit::Mpixel => "Mpixel",
            OpUnit::MillionEdges => "MTE",
            OpUnit::Gigabyte => "GB",
            OpUnit::Request => "request",
        }
    }
}

impl fmt::Display for OpUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An amount of completed work, tagged with the unit it is measured in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCount {
    amount: f64,
    unit: OpUnit,
}

impl OpCount {
    /// Creates a work amount.
    #[must_use]
    pub const fn new(amount: f64, unit: OpUnit) -> Self {
        Self { amount, unit }
    }

    /// Zero work in the given unit.
    #[must_use]
    pub const fn zero(unit: OpUnit) -> Self {
        Self::new(0.0, unit)
    }

    /// The amount of work, in [`Self::unit`] units.
    #[must_use]
    pub const fn amount(self) -> f64 {
        self.amount
    }

    /// The unit the work is measured in.
    #[must_use]
    pub const fn unit(self) -> OpUnit {
        self.unit
    }

    /// Adds two work amounts.
    ///
    /// # Errors
    ///
    /// Returns [`UnitMismatch`] if the two amounts use different units.
    pub fn checked_add(self, other: Self) -> Result<Self, UnitMismatch> {
        if self.unit == other.unit {
            Ok(Self::new(self.amount + other.amount, self.unit))
        } else {
            Err(UnitMismatch {
                left: self.unit,
                right: other.unit,
            })
        }
    }
}

impl fmt::Display for OpCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3e} {}", self.amount, self.unit)
    }
}

impl Add for OpCount {
    type Output = Self;

    /// Adds two work amounts.
    ///
    /// # Panics
    ///
    /// Panics if the units differ; use [`OpCount::checked_add`] to handle the
    /// mismatch as an error instead.
    fn add(self, rhs: Self) -> Self {
        self.checked_add(rhs)
            // lint:allow(panic-in-library): documented panic — `Add` is
            // the panicking convenience; `checked_add` is the fallible API
            .expect("cannot add OpCount values with different units")
    }
}

/// Error returned when combining work measured in different units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitMismatch {
    /// Unit of the left operand.
    pub left: OpUnit,
    /// Unit of the right operand.
    pub right: OpUnit,
}

impl fmt::Display for UnitMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "operation unit mismatch: {} vs {}",
            self.left, self.right
        )
    }
}

impl std::error::Error for UnitMismatch {}

/// A sustained rate of work, in `unit` per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    per_second: f64,
    unit: OpUnit,
}

impl Throughput {
    /// Creates a throughput of `per_second` units of work each second.
    #[must_use]
    pub const fn per_second(per_second: f64, unit: OpUnit) -> Self {
        Self { per_second, unit }
    }

    /// The rate in work units per second.
    #[must_use]
    pub const fn rate(self) -> f64 {
        self.per_second
    }

    /// The unit of work.
    #[must_use]
    pub const fn unit(self) -> OpUnit {
        self.unit
    }

    /// Scales the throughput by a dimensionless factor (for example a CPU
    /// utilisation fraction, as in Eq. 6 of the paper).
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        Self::per_second(self.per_second * factor, self.unit)
    }

    /// Total work completed when sustaining this throughput for `span`.
    #[must_use]
    pub fn work_over(self, span: TimeSpan) -> OpCount {
        OpCount::new(self.per_second * span.seconds(), self.unit)
    }
}

impl fmt::Display for Throughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} {}/s", self.per_second, self.unit)
    }
}

impl Mul<TimeSpan> for Throughput {
    type Output = OpCount;
    fn mul(self, rhs: TimeSpan) -> OpCount {
        self.work_over(rhs)
    }
}

impl Mul<f64> for Throughput {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_accumulates_work() {
        let t = Throughput::per_second(39.0, OpUnit::Gflop);
        let work = t * TimeSpan::from_hours(1.0);
        assert!((work.amount() - 39.0 * 3600.0).abs() < 1e-6);
        assert_eq!(work.unit(), OpUnit::Gflop);
    }

    #[test]
    fn throughput_scaling() {
        let t = Throughput::per_second(100.0, OpUnit::Request).scaled(0.5);
        assert!((t.rate() - 50.0).abs() < 1e-12);
        let t2 = t * 2.0;
        assert!((t2.rate() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn op_count_add_same_unit() {
        let a = OpCount::new(1.0, OpUnit::Mpixel);
        let b = OpCount::new(2.0, OpUnit::Mpixel);
        assert_eq!((a + b).amount(), 3.0);
    }

    #[test]
    fn op_count_add_mismatch_errors() {
        let a = OpCount::new(1.0, OpUnit::Mpixel);
        let b = OpCount::new(2.0, OpUnit::Gflop);
        let err = a.checked_add(b).unwrap_err();
        assert_eq!(err.left, OpUnit::Mpixel);
        assert_eq!(err.right, OpUnit::Gflop);
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(OpUnit::Gflop.label(), "gflop");
        assert_eq!(OpUnit::MillionEdges.label(), "MTE");
        assert_eq!(OpUnit::Request.to_string(), "request");
    }
}
