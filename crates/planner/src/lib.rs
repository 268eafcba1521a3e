//! SLO-constrained, carbon-minimal fleet provisioning search.
//!
//! The paper's Figure 7 compares a handful of hand-picked deployments;
//! a real junkyard-cloudlet operator faces the *search* problem: given a
//! demand trace, a latency SLO, a device catalog and a set of grid
//! regions, which deployment minimises gCO2e per request? This crate
//! answers it by driving the compiled microsim / fleet / lifecycle stack
//! as a black-box evaluator:
//!
//! * [`candidate`] — the typed search point: per-region cohort choice,
//!   routing policy, smart-charging floor, junkyard refill lag and an
//!   optional leased-datacenter fallback share, with a stable
//!   fingerprint the cache and the deterministic ranking key on.
//! * [`space`] — the option lists, deterministic enumeration and the
//!   seeded single-dimension mutation operator.
//! * [`slo`] — the hard constraint: median/tail latency bounds and a
//!   shed ceiling; violators are discarded regardless of carbon.
//! * [`evaluator`] — the black-box contract ([`Evaluator`]: one batch
//!   scoring method and an optional shed pre-screen), the fidelity
//!   ladder ([`Fidelity`]) and the memoised `(fingerprint, fidelity)`
//!   cache that scores each batch and makes revisits free.
//! * [`fleet_eval`] — the concrete evaluator: candidates become
//!   [`LifecycleSim`](junkyard_fleet::lifecycle::LifecycleSim) runs,
//!   with a saturation pre-screen built on
//!   [`LatencyCurve::max_sustainable_qps`](junkyard_microsim::sweep::LatencyCurve::max_sustainable_qps).
//! * [`search`](mod@search) — successive halving over fidelity plus seeded local
//!   search, fanning candidate evaluations across worker threads with
//!   the workspace's one order-preserving `fan_out`: results, frontier
//!   and even cache-hit counts are bit-identical at any worker count.
//! * [`pareto`] — the reported frontier: gCO2e/request versus p99
//!   latency versus fleet size, plus the carbon argmin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidate;
pub mod evaluator;
pub mod fleet_eval;
pub mod pareto;
pub mod search;
pub mod slo;
pub mod space;
#[cfg(test)]
pub(crate) mod testutil;

pub use candidate::CandidateDeployment;
pub use evaluator::{EvalCache, EvalError, Evaluation, Evaluator, Fidelity};
pub use fleet_eval::FleetEvaluator;
pub use pareto::pareto_indices;
pub use search::{search, PlannedDeployment, SearchConfig, SearchOutcome};
pub use slo::Slo;
pub use space::{CohortOption, PlannerSpace};
