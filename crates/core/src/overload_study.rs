//! The overload study: what the Pixel 3A cloudlet does when pushed far
//! past its knee.
//!
//! The paper's Section 6 sweeps stop where the latencies shoot up; this
//! study keeps going. With the microsim's bounded application queues
//! (`ServerModel::with_queue_size`) the cloudlet becomes a loss system,
//! and the interesting questions are *how much* it sheds at 2–10× the
//! sustainable rate and what happens to the latency of the requests it
//! still serves — under each queue discipline (centralized vs
//! distributed FCFS) and core layout (combined vs dedicated network
//! cores).
//!
//! The study first locates the knee of the *default* (unbounded,
//! centralized, combined) deployment with a conventional sweep, then
//! re-sweeps every (discipline × layout) variant, all in one sweep batch,
//! with a finite per-queue bound at fixed multiples of that knee.
//! Everything below the knee should be drop-free; everything at ≥2×
//! should shed visibly.

use junkyard_microsim::app::{social_network, SN_COMPOSE_POST};
use junkyard_microsim::sim::{CoreLayout, QueueDiscipline, ServerModel};
use junkyard_microsim::sweep::{LatencyCurve, SweepConfig};

use crate::deployments::{build_deployment, DeploymentError, DeploymentKind};

/// The per-queue bound applied to every overload variant.
const QUEUE_SLOTS: usize = 64;

/// Display label of a queue discipline.
#[must_use]
pub fn discipline_label(discipline: QueueDiscipline) -> &'static str {
    match discipline {
        QueueDiscipline::CentralizedFcfs => "cFCFS",
        QueueDiscipline::DistributedFcfs => "dFCFS",
    }
}

/// Display label of a core layout.
#[must_use]
pub fn layout_label(layout: CoreLayout) -> String {
    match layout {
        CoreLayout::Combined => "combined".to_owned(),
        CoreLayout::Dedicated { network_cores } => format!("dedicated-{network_cores}net"),
    }
}

/// Result of an overload study: the baseline knee and one curve per
/// (discipline × layout) variant.
#[derive(Debug, Clone)]
pub struct OverloadStudyResult {
    knee_qps: f64,
    multipliers: Vec<f64>,
    curves: Vec<LatencyCurve>,
}

impl OverloadStudyResult {
    /// The sustainable throughput of the default deployment (median ≤
    /// 100 ms, tail ≤ 200 ms), from which the overload points are scaled.
    #[must_use]
    pub fn knee_qps(&self) -> f64 {
        self.knee_qps
    }

    /// The per-queue bound applied to every overload variant.
    #[must_use]
    pub fn queue_size(&self) -> usize {
        QUEUE_SLOTS
    }

    /// The load multipliers (× knee) every variant was measured at.
    #[must_use]
    pub fn multipliers(&self) -> &[f64] {
        &self.multipliers
    }

    /// One curve per (discipline × layout) variant, each labelled with
    /// its variant (`"cFCFS/combined"`); point order matches
    /// [`Self::multipliers`].
    #[must_use]
    pub fn curves(&self) -> &[LatencyCurve] {
        &self.curves
    }

    /// True when no variant dropped anything strictly below the knee.
    #[must_use]
    pub fn drop_free_below_knee(&self) -> bool {
        self.curves.iter().all(|c| {
            c.points()
                .iter()
                .filter(|p| p.qps() < self.knee_qps)
                .all(|p| p.drop_fraction() == 0.0)
        })
    }

    /// True when every variant sheds at every point at or above
    /// `multiplier × knee`.
    #[must_use]
    pub fn all_variants_drop_at(&self, multiplier: f64) -> bool {
        self.curves.iter().all(|c| {
            c.points()
                .iter()
                .filter(|p| p.qps() >= multiplier * self.knee_qps - 1e-9)
                .all(|p| p.drop_fraction() > 0.0)
        })
    }
}

/// Configuration of the overload study.
#[derive(Debug, Clone)]
pub struct OverloadStudy {
    baseline_qps_points: Vec<f64>,
    multipliers: Vec<f64>,
    duration_s: f64,
    warmup_s: f64,
    seed: u64,
}

impl OverloadStudy {
    /// The full study: knee from an 8-point baseline sweep, variants at
    /// 0.25×–10× the knee with 64-deep queues, 5-second measurements.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            baseline_qps_points: (1..=8).map(|i| f64::from(i) * 700.0).collect(),
            multipliers: vec![0.25, 0.5, 0.75, 2.0, 4.0, 6.0, 8.0, 10.0],
            duration_s: 5.0,
            warmup_s: 1.0,
            seed: 42,
        }
    }

    /// A reduced study for quick runs, tests and CI smoke.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            baseline_qps_points: vec![1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0],
            multipliers: vec![0.25, 0.5, 2.0, 4.0],
            duration_s: 2.0,
            warmup_s: 1.0,
            seed: 42,
        }
    }

    /// Sets the root seed of every sweep.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the study on the ten-phone SocialNetwork compose-post
    /// deployment.
    ///
    /// # Errors
    ///
    /// Propagates deployment-build and simulation errors.
    pub fn run(&self) -> Result<OverloadStudyResult, DeploymentError> {
        let app = social_network();
        let sweep = |points: Vec<f64>| {
            SweepConfig::new(points, self.duration_s, self.warmup_s)
                .request_type(SN_COMPOSE_POST)
                .seed(self.seed)
        };

        // The knee of the default (unbounded, centralized, combined)
        // deployment anchors every variant's load axis.
        let default_sim = build_deployment(DeploymentKind::PhoneCloudlet, &app, 11)?.compile();
        let baseline = sweep(self.baseline_qps_points.clone())
            .run("baseline", &default_sim)
            .map_err(DeploymentError::Sim)?;
        let knee_qps = baseline
            .max_sustainable_qps(100.0, 200.0)
            .unwrap_or_else(|| {
                // The sweep never crossed the SLO: the knee is beyond the
                // last point, which then serves as a conservative anchor.
                *self
                    .baseline_qps_points
                    .last()
                    .expect("a sweep has at least one point")
            });

        let variants = [
            QueueDiscipline::CentralizedFcfs,
            QueueDiscipline::DistributedFcfs,
        ]
        .into_iter()
        .flat_map(|d| {
            [
                CoreLayout::Combined,
                CoreLayout::Dedicated { network_cores: 2 },
            ]
            .into_iter()
            .map(move |l| (d, l))
        });
        let mut sims = Vec::new();
        for (discipline, layout) in variants {
            let model = ServerModel::new()
                .with_discipline(discipline)
                .with_layout(layout)
                .with_queue_size(Some(QUEUE_SLOTS));
            let sim = build_deployment(DeploymentKind::PhoneCloudlet, &app, 11)?
                .with_server_model(model)
                .compile();
            let label = format!("{}/{}", discipline_label(discipline), layout_label(layout));
            sims.push((label, sim));
        }
        // Every variant runs the same load points: one batch measures
        // them all.
        let overload = sweep(self.multipliers.iter().map(|m| m * knee_qps).collect());
        let batch = sims
            .iter()
            .map(|(label, sim)| (&overload, label.as_str(), sim));
        let curves = SweepConfig::run_batch(batch).map_err(DeploymentError::Sim)?;
        Ok(OverloadStudyResult {
            knee_qps,
            multipliers: self.multipliers.clone(),
            curves,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_cover_every_variant() {
        assert_eq!(discipline_label(QueueDiscipline::CentralizedFcfs), "cFCFS");
        assert_eq!(discipline_label(QueueDiscipline::DistributedFcfs), "dFCFS");
        assert_eq!(layout_label(CoreLayout::Combined), "combined");
        assert_eq!(
            layout_label(CoreLayout::Dedicated { network_cores: 2 }),
            "dedicated-2net"
        );
    }
}
