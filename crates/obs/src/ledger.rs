//! The conservation ledger: the two `lint: conserved` identities as a
//! live, self-checking primitive.
//!
//! The fleet/lifecycle results carry struct fields audited statically
//! by `junkyard_lint`'s `conservation-audit` rule; this mirrors the
//! same identities dynamically, so a trace can assert at *record time*
//! that nothing leaked:
//!
//! * requests: `offered == served + declined + dropped + shed + failed`
//! * carbon:   `total == operational + embodied + retry`

use std::fmt;

use crate::event::{EventKind, TraceEvent};

/// A violated conservation identity, with both sides of the failed
/// balance.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// `offered` didn't balance against the served/declined/dropped/
    /// shed/failed decomposition.
    Requests {
        /// The left-hand side of the identity.
        offered: f64,
        /// The sum the decomposition actually reached.
        accounted: f64,
    },
    /// `total` carbon didn't balance against operational + embodied +
    /// retry.
    Carbon {
        /// The left-hand side of the identity.
        total: f64,
        /// The sum the decomposition actually reached.
        accounted: f64,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Requests { offered, accounted } => write!(
                f,
                "request conservation violated: offered {offered} but served + declined + \
                 dropped + shed + failed account for {accounted}"
            ),
            LedgerError::Carbon { total, accounted } => write!(
                f,
                "carbon conservation violated: total {total} gCO2e but operational + embodied + \
                 retry account for {accounted}"
            ),
        }
    }
}

/// Relative tolerance of every balance check: generous against f64
/// summation order but far below any real accounting leak.
const LEDGER_TOLERANCE: f64 = 1e-6;

/// Running totals for both conserved identities, re-checked on every
/// `record_*` call — a broken decomposition is rejected at the moment
/// it happens, with the failing window still on the stack, instead of
/// surfacing as a drifted total at the end of a study.
#[derive(Debug, Clone, Default)]
pub struct ConservedLedger {
    offered: f64,
    served: f64,
    declined: f64,
    dropped: f64,
    shed: f64,
    failed: f64,
    carbon: f64,
    operational: f64,
    embodied: f64,
    retry: f64,
}

impl ConservedLedger {
    /// An empty ledger. Every balance check allows a relative error of
    /// `1e-6` (`LEDGER_TOLERANCE`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn balanced(&self, lhs: f64, accounted: f64) -> bool {
        (lhs - accounted).abs() <= LEDGER_TOLERANCE * lhs.abs().max(1.0)
    }

    /// Records one window's (or study's) request decomposition,
    /// rejecting it if `offered` doesn't balance. Totals only
    /// accumulate on success.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Requests`] when the identity is violated beyond
    /// the tolerance.
    pub fn record_requests(
        &mut self,
        offered: f64,
        served: f64,
        declined: f64,
        dropped: f64,
        shed: f64,
        failed: f64,
    ) -> Result<(), LedgerError> {
        let accounted = served + declined + dropped + shed + failed;
        if !self.balanced(offered, accounted) {
            return Err(LedgerError::Requests { offered, accounted });
        }
        self.offered += offered;
        self.served += served;
        self.declined += declined;
        self.dropped += dropped;
        self.shed += shed;
        self.failed += failed;
        Ok(())
    }

    /// Records one slice of the carbon decomposition, rejecting it if
    /// `total` doesn't balance. Totals only accumulate on success.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Carbon`] when the identity is violated beyond the
    /// tolerance.
    pub fn record_carbon(
        &mut self,
        total: f64,
        operational: f64,
        embodied: f64,
        retry: f64,
    ) -> Result<(), LedgerError> {
        let accounted = operational + embodied + retry;
        if !self.balanced(total, accounted) {
            return Err(LedgerError::Carbon { total, accounted });
        }
        self.carbon += total;
        self.operational += operational;
        self.embodied += embodied;
        self.retry += retry;
        Ok(())
    }

    /// Accumulated offered requests.
    #[must_use]
    pub fn offered(&self) -> f64 {
        self.offered
    }

    /// Accumulated served requests.
    #[must_use]
    pub fn served(&self) -> f64 {
        self.served
    }

    /// Accumulated total carbon (gCO2e).
    #[must_use]
    pub fn carbon(&self) -> f64 {
        self.carbon
    }

    /// A `ledger` trace event snapshotting both identities at simulated
    /// time `t` (value = offered so far; detail = the full balance).
    #[must_use]
    pub fn snapshot(&self, t: f64) -> TraceEvent {
        TraceEvent::new(EventKind::Ledger, t, "conserved", self.offered).with_detail(&format!(
            "requests offered={} served={} declined={} dropped={} shed={} failed={}; \
             carbon total={} operational={} embodied={} retry={}",
            self.offered,
            self.served,
            self.declined,
            self.dropped,
            self.shed,
            self.failed,
            self.carbon,
            self.operational,
            self.embodied,
            self.retry,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_identities_accumulate() {
        let mut ledger = ConservedLedger::new();
        ledger
            .record_requests(100.0, 90.0, 4.0, 3.0, 2.0, 1.0)
            .expect("balanced");
        ledger
            .record_requests(50.0, 50.0, 0.0, 0.0, 0.0, 0.0)
            .expect("balanced");
        ledger.record_carbon(10.0, 6.0, 3.0, 1.0).expect("balanced");
        assert_eq!(ledger.offered(), 150.0);
        assert_eq!(ledger.served(), 140.0);
        assert_eq!(ledger.carbon(), 10.0);
    }

    #[test]
    fn broken_request_identity_is_rejected_and_not_accumulated() {
        let mut ledger = ConservedLedger::new();
        let err = ledger
            .record_requests(100.0, 90.0, 0.0, 0.0, 0.0, 0.0)
            .expect_err("10 requests leaked");
        assert_eq!(
            err,
            LedgerError::Requests {
                offered: 100.0,
                accounted: 90.0
            }
        );
        assert_eq!(ledger.offered(), 0.0);
    }

    #[test]
    fn broken_carbon_identity_is_rejected() {
        let mut ledger = ConservedLedger::new();
        let err = ledger
            .record_carbon(10.0, 6.0, 3.0, 0.0)
            .expect_err("1 gram leaked");
        assert!(matches!(err, LedgerError::Carbon { .. }));
        assert!(err.to_string().contains("carbon conservation violated"));
    }

    #[test]
    fn tolerance_absorbs_summation_noise() {
        let mut ledger = ConservedLedger::new();
        ledger
            .record_requests(1.0e9, 1.0e9 + 0.5, 0.0, 0.0, 0.0, 0.0)
            .expect("relative error 5e-10 is inside 1e-6");
    }
}
