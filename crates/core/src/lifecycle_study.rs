//! The multi-year lifecycle study: the paper's Figure 7-style amortised
//! carbon-per-request trajectory, reproduced end to end from simulated
//! dynamics instead of closed-form amortisation.
//!
//! Two junk-phone cloudlets (heterogeneous Pixel 3A / Nexus 4 cohorts in
//! two grid regions half a day out of phase) serve a diurnal demand under
//! carbon-aware routing; a c5.9xlarge datacenter backend on a flat
//! gas-heavy grid serves the *same* demand as the comparison deployment.
//! Both run day by day for up to a decade: cohort batteries wear under
//! the simulated smart-charging schedule and are replaced when spent,
//! devices fail stochastically and are refilled from junkyard stock
//! (charging their Reuse-Factor embodied share), and the cloudlet's
//! install embodied carbon lands on day 0 while the rented instance
//! amortises its share linearly. The cumulative gCO2e/request trajectory
//! starts *above* the datacenter's — the install bill dominates the first
//! weeks — and crosses below it well within the paper's reported horizon
//! as service amortises it away.

use junkyard_carbon::units::{GramsCo2e, TimeSpan};
use junkyard_cluster::Peripheral;
use junkyard_devices::catalog;
use junkyard_fleet::lifecycle::{
    CohortDevice, LifecycleConfig, LifecycleResult, LifecycleSim, LifecycleSite, DAYS_PER_YEAR,
};
use junkyard_fleet::routing::RoutingPolicy;
use junkyard_fleet::schedule::DiurnalSchedule;
use junkyard_fleet::site::GridRegion;
use junkyard_grid::synth::CaisoSynthesizer;
use junkyard_grid::trace::IntensityTrace;
use junkyard_microsim::app::{social_network, SN_COMPOSE_POST};
use junkyard_microsim::network::NetworkModel;
use junkyard_microsim::node::NodeSpec;
use junkyard_microsim::placement::Placement;
use junkyard_microsim::sim::Simulation;

use crate::cloudlet_study::CloudletWorkload;
use crate::deployments::{c5_datacenter_site, two_region_traces, DeploymentError};
use crate::report::{Chart, SeriesLine, Table};

/// Pixel 3A slots per cloudlet.
pub(crate) const PIXELS_PER_SITE: usize = 6;
/// Nexus 4 slots per cloudlet.
pub(crate) const NEXUSES_PER_SITE: usize = 4;
/// Mean days between failures of one cloudlet device: about four years.
pub(crate) const MEAN_DAYS_BETWEEN_FAILURES: f64 = 1_500.0;
/// Days a failed slot waits for its junkyard refill.
const REPLACEMENT_LAG_DAYS: usize = 7;
/// Warm-up simulated before each measured slice, seconds.
const WARMUP_S: f64 = 1.0;

/// The demand every study of this deployment serves: the office-day
/// curve at a peak-hour base of 1,600 requests per second.
pub(crate) fn office_day_demand() -> DiurnalSchedule {
    DiurnalSchedule::office_day(1_600.0)
}

/// Configuration of the cloudlet-versus-datacenter lifecycle study.
#[derive(Debug, Clone)]
pub struct LifecycleStudy {
    years: usize,
    windows_per_day: usize,
    sim_slice_s: f64,
    seed: u64,
    parallelism: Option<usize>,
    trace_days: usize,
    trace_step: TimeSpan,
    spare_pixels: usize,
}

impl LifecycleStudy {
    /// The full-scale study: ten years, 24 one-hour routing windows per
    /// day, the calibrated 5-minute CAISO-like month as each region's
    /// (periodically tiled) grid trace, a ~4-year device MTBF with a
    /// one-week junkyard replacement lag.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            years: 10,
            windows_per_day: 24,
            sim_slice_s: 2.0,
            seed: 42,
            parallelism: None,
            trace_days: 30,
            trace_step: TimeSpan::from_minutes(5.0),
            spare_pixels: 0,
        }
    }

    /// A reduced study for quick runs and tests: five years, four 6-hour
    /// windows per day, a coarser 15-minute ten-day trace.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            years: 5,
            windows_per_day: 4,
            sim_slice_s: 1.0,
            seed: 42,
            parallelism: None,
            trace_days: 10,
            trace_step: TimeSpan::from_minutes(15.0),
            spare_pixels: 0,
        }
    }

    /// Overrides the simulated horizon in years.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn years(mut self, years: usize) -> Self {
        assert!(years > 0, "the study needs at least one year");
        self.years = years;
        self
    }

    /// Overrides the random seed (grid traces, failures and workloads
    /// stay deterministic per seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds N+1-style spare Pixel 3A slots to every cloudlet, beyond the
    /// paper's six-Pixel/four-Nexus layout. Spares cost embodied carbon
    /// on day 0 and idle power for the whole horizon, which is exactly
    /// the overprovisioning price the resilience study measures.
    #[must_use]
    pub fn spare_pixels(mut self, spares: usize) -> Self {
        self.spare_pixels = spares;
        self
    }

    /// Caps the worker threads; `1` forces serial runs.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        assert!(workers > 0, "the study needs at least one worker");
        self.parallelism = Some(workers);
        self
    }

    /// The two cloudlet grid traces: a CAISO-like west region and its
    /// antipodal twin shifted by twelve hours, both whole-day traces the
    /// lifecycle tiles periodically over the horizon.
    #[must_use]
    pub fn two_region_traces(&self) -> (IntensityTrace, IntensityTrace) {
        two_region_traces(CaisoSynthesizer::new(self.seed, self.trace_days).step(self.trace_step))
    }

    /// Per-slot serving capacities: the Pixel's paper-measured share of
    /// the ten-phone cloudlet, and the Nexus 4 scaled down by its
    /// multi-core SGEMM ratio. Public so the planner study provisions
    /// its candidate cohorts from the same calibration.
    #[must_use]
    pub fn slot_capacities() -> (f64, f64) {
        let per_pixel = CloudletWorkload::SocialNetworkWrite.paper_phone_qps() / 10.0;
        let pixel = catalog::pixel_3a();
        let nexus = catalog::nexus_4();
        let benchmark = junkyard_devices::benchmark::Benchmark::Sgemm;
        let ratio = nexus
            .benchmarks()
            .get(benchmark)
            .expect("nexus sgemm")
            .multi_core()
            / pixel
                .benchmarks()
                .get(benchmark)
                .expect("pixel sgemm")
                .multi_core();
        (per_pixel, per_pixel * ratio)
    }

    /// Builds one heterogeneous junk-phone cloudlet on `trace`'s grid:
    /// six Pixel 3A and four Nexus 4 slots, install embodied charged on
    /// day 0, wear-driven battery replacements and stochastic failures
    /// refilled from junkyard stock.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if the mixed cloudlet cannot be
    /// assembled.
    pub fn phone_site(
        &self,
        name: &str,
        trace: IntensityTrace,
    ) -> Result<LifecycleSite, DeploymentError> {
        let pixel = catalog::pixel_3a();
        let nexus = catalog::nexus_4();
        let (pixel_qps, nexus_qps) = Self::slot_capacities();

        let pixels = PIXELS_PER_SITE + self.spare_pixels;
        let mut nodes = Vec::with_capacity(pixels + NEXUSES_PER_SITE);
        let mut devices = Vec::with_capacity(pixels + NEXUSES_PER_SITE);
        for i in 0..pixels {
            nodes.push(NodeSpec::from_device(format!("pixel-{i}"), &pixel));
            devices.push(CohortDevice::from_catalog(&pixel, pixel_qps)?);
        }
        for i in 0..NEXUSES_PER_SITE {
            nodes.push(NodeSpec::from_device(format!("nexus-{i}"), &nexus));
            devices.push(CohortDevice::from_catalog(&nexus, nexus_qps)?);
        }

        let app = social_network();
        let placement =
            Placement::swarm_spread(&app, &nodes, 11).map_err(DeploymentError::Placement)?;
        let sim = Simulation::new(app, nodes, placement, NetworkModel::phone_wifi())
            .map_err(DeploymentError::Sim)?;

        let fan = Peripheral::server_fan(1);
        let install: GramsCo2e = devices
            .iter()
            .map(CohortDevice::replacement_embodied)
            .sum::<GramsCo2e>()
            + fan.total_embodied();

        let site =
            LifecycleSite::try_cohort(name, &sim, GridRegion::new(name, trace), devices, install)
                .map_err(DeploymentError::SiteConfig)?
                .request_type(SN_COMPOSE_POST)
                .overhead_power(fan.total_power())
                .failures(MEAN_DAYS_BETWEEN_FAILURES, REPLACEMENT_LAG_DAYS)
                .map_err(DeploymentError::SiteConfig)?;
        Ok(site)
    }

    /// The study's run config over a horizon of `days`: its windows per
    /// day, slice, warm-up, seed and worker cap. The resilience study
    /// runs its fleets on it too.
    pub(crate) fn config(&self, days: usize) -> LifecycleConfig {
        let mut config = LifecycleConfig::days(days)
            .windows_per_day(self.windows_per_day)
            .sim_slice_s(self.sim_slice_s)
            .warmup_s(WARMUP_S)
            .seed(self.seed);
        if let Some(workers) = self.parallelism {
            config = config.parallelism(workers);
        }
        config
    }

    /// Assembles the two-cloudlet fleet under carbon-aware routing.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if a site cannot be built.
    pub fn build_cloudlet_fleet(&self) -> Result<LifecycleSim, DeploymentError> {
        let (west, east) = self.two_region_traces();
        let sites = vec![
            self.phone_site("cloudlet-west", west)?,
            self.phone_site("cloudlet-east", east)?,
        ];
        Ok(LifecycleSim::new(
            sites,
            office_day_demand(),
            RoutingPolicy::CarbonAware,
            self.config(self.years * DAYS_PER_YEAR),
        ))
    }

    /// Assembles the single-site datacenter fleet serving the same
    /// demand.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if the site cannot be built.
    pub fn build_datacenter_fleet(&self) -> Result<LifecycleSim, DeploymentError> {
        let site = LifecycleSite::try_leased(c5_datacenter_site("datacenter")?)?;
        Ok(LifecycleSim::new(
            vec![site],
            office_day_demand(),
            RoutingPolicy::Static,
            self.config(self.years * DAYS_PER_YEAR),
        ))
    }

    /// Runs both deployments over the same multi-year demand and seeds.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if a deployment cannot be built or a
    /// simulation fails.
    pub fn run(&self) -> Result<LifecycleStudyResult, DeploymentError> {
        let cloudlet = self
            .build_cloudlet_fleet()?
            .run()
            .map_err(DeploymentError::Sim)?;
        let datacenter = self
            .build_datacenter_fleet()?
            .run()
            .map_err(DeploymentError::Sim)?;
        Ok(LifecycleStudyResult {
            cloudlet,
            datacenter,
        })
    }
}

/// Result of the lifecycle study: both deployments over the same demand.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleStudyResult {
    cloudlet: LifecycleResult,
    datacenter: LifecycleResult,
}

impl LifecycleStudyResult {
    /// The two-cloudlet junk-phone deployment.
    #[must_use]
    pub fn cloudlet(&self) -> &LifecycleResult {
        &self.cloudlet
    }

    /// The rented c5.9xlarge deployment.
    #[must_use]
    pub fn datacenter(&self) -> &LifecycleResult {
        &self.datacenter
    }

    /// The first day the cloudlet's cumulative amortised gCO2e/request
    /// drops below the datacenter's, or `None` if it never does. The
    /// cloudlet pays its install embodied up front, so it starts above
    /// and crosses below as service amortises the bill.
    #[must_use]
    pub fn crossover_day(&self) -> Option<usize> {
        self.cloudlet.first_day_cheaper_than(&self.datacenter)
    }

    /// Lifetime carbon advantage of the cloudlet: datacenter over
    /// cloudlet amortised gCO2e/request at the end of the horizon.
    #[must_use]
    pub fn lifetime_advantage(&self) -> f64 {
        let cloudlet = self
            .cloudlet
            .grams_per_request()
            .expect("the study offers traffic");
        let datacenter = self
            .datacenter
            .grams_per_request()
            .expect("the study offers traffic");
        datacenter / cloudlet
    }

    /// The Figure 7-style trajectory chart: cumulative amortised
    /// gCO2e/request at the end of each year, one line per deployment.
    #[must_use]
    pub fn trajectory_chart(&self) -> Chart {
        let mut chart = Chart::new(
            "lifecycle — lifetime-amortised carbon per request",
            "deployment lifetime (years)",
            "mgCO2e/request",
        );
        for (label, result) in [
            ("phone cloudlets", &self.cloudlet),
            ("c5.9xlarge", &self.datacenter),
        ] {
            let points = result
                .yearly_trajectory()
                .into_iter()
                .map(|(year, grams)| (year, grams * 1_000.0))
                .collect();
            chart.push_line(SeriesLine::new(label, points));
        }
        chart
    }

    /// Per-deployment lifetime accounting table.
    #[must_use]
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(
            "lifecycle accounting over the full horizon",
            vec![
                "deployment".into(),
                "requests (B)".into(),
                "operational (kg)".into(),
                "embodied (kg)".into(),
                "battery packs".into(),
                "device failures".into(),
                "gCO2e/request".into(),
            ],
        );
        for (label, result) in [
            ("phone cloudlets", &self.cloudlet),
            ("c5.9xlarge", &self.datacenter),
        ] {
            table.push_row(vec![
                label.to_owned(),
                format!("{:.3}", result.total_requests() / 1e9),
                format!("{:.1}", result.total_operational().kilograms()),
                format!("{:.1}", result.total_embodied().kilograms()),
                result.total_battery_replacements().to_string(),
                result.total_device_failures().to_string(),
                format!("{:.6}", result.grams_per_request().unwrap_or(0.0)),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_study() -> LifecycleStudy {
        LifecycleStudy::quick().years(3)
    }

    #[test]
    fn cloudlet_crosses_below_the_datacenter_within_the_first_year() {
        let result = short_study().run().unwrap();
        // The install embodied makes the cloudlet *more* carbon-intensive
        // per request at first …
        let early_cloudlet = result.cloudlet().grams_per_request_through_day(0).unwrap();
        let early_dc = result
            .datacenter()
            .grams_per_request_through_day(0)
            .unwrap();
        assert!(
            early_cloudlet > early_dc,
            "day 0: cloudlet {early_cloudlet} must start above dc {early_dc}"
        );
        // … and amortises below it well within the paper's horizon.
        let crossover = result.crossover_day().expect("the trajectories cross");
        assert!(crossover < 365, "crossover day {crossover}");
        assert!(result.lifetime_advantage() > 1.0);
    }

    #[test]
    fn battery_replacements_come_from_simulated_wear() {
        let result = short_study().run().unwrap();
        // Pixel packs at ~1.5 W wear out after ~2.3 years of continuous
        // service, so a 3-year horizon replaces packs — driven by the
        // integrated schedule, not a static constant.
        assert!(result.cloudlet().total_battery_replacements() > 0);
        // 20 devices at a 1500-day MTBF over 3 years expect ~15 failures.
        assert!(result.cloudlet().total_device_failures() > 0);
        assert_eq!(result.datacenter().total_battery_replacements(), 0);
    }

    #[test]
    fn study_is_deterministic_across_thread_counts() {
        let serial = short_study().years(2).parallelism(1).run().unwrap();
        let threaded = short_study().years(2).parallelism(4).run().unwrap();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn report_artifacts_cover_both_deployments() {
        let result = short_study().run().unwrap();
        let chart = result.trajectory_chart();
        assert_eq!(chart.lines().len(), 2);
        let cloudlet = chart.line("phone cloudlets").unwrap();
        assert_eq!(cloudlet.points().len(), 3);
        // The cloudlet's trajectory falls as the install amortises.
        assert!(cloudlet.points()[0].1 > cloudlet.points()[2].1);
        let table = result.summary_table();
        assert_eq!(table.rows().len(), 2);
    }

    #[test]
    fn both_deployments_serve_the_same_demand() {
        let result = short_study().years(1).run().unwrap();
        let cloudlet = result.cloudlet().total_requests() + result.cloudlet().shed_requests();
        let datacenter = result.datacenter().total_requests() + result.datacenter().shed_requests();
        assert!(
            ((cloudlet - datacenter) / datacenter).abs() < 1e-9,
            "offered demand must match: {cloudlet} vs {datacenter}"
        );
    }
}
