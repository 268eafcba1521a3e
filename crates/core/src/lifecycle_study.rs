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

use junkyard_carbon::units::{CarbonIntensity, GramsCo2e, TimeSpan, Watts};
use junkyard_devices::catalog::{self, C5Size};
use junkyard_devices::components::ComponentBreakdown;
use junkyard_devices::device::DeviceSpec;
use junkyard_devices::power::LoadProfile;
use junkyard_fleet::lifecycle::{
    CohortDevice, LifecycleConfig, LifecycleResult, LifecycleSim, LifecycleSite,
};
use junkyard_fleet::routing::RoutingPolicy;
use junkyard_fleet::schedule::DiurnalSchedule;
use junkyard_fleet::site::{second_life_embodied, GridRegion};
use junkyard_grid::synth::CaisoSynthesizer;
use junkyard_grid::trace::IntensityTrace;
use junkyard_microsim::app::{social_network, SN_COMPOSE_POST};
use junkyard_microsim::network::NetworkModel;
use junkyard_microsim::node::NodeSpec;
use junkyard_microsim::placement::Placement;
use junkyard_microsim::sim::Simulation;

use crate::cloudlet_study::CloudletWorkload;
use crate::deployments::{build_deployment, DeploymentError, DeploymentKind};
use crate::report::{Chart, SeriesLine, Table};

/// Embodied carbon of the cloudlet's server fan, kgCO2e (Section 5.2).
const FAN_EMBODIED_KG: f64 = 9.3;
/// Always-on cloudlet overhead draw (fan), watts.
const FAN_WATTS: f64 = 4.0;
/// Flat carbon intensity of the datacenter's gas-heavy grid, gCO2e/kWh.
const DATACENTER_GRID_G_PER_KWH: f64 = 420.0;
/// Pixel 3A slots per cloudlet.
const PIXELS_PER_SITE: usize = 6;
/// Nexus 4 slots per cloudlet.
const NEXUSES_PER_SITE: usize = 4;

/// Peak-hour base demand of the day curve, requests per second.
const BASE_QPS: f64 = 1_600.0;

/// Configuration of the cloudlet-versus-datacenter lifecycle study.
#[derive(Debug, Clone)]
pub struct LifecycleStudy {
    years: usize,
    windows_per_day: usize,
    sim_slice_s: f64,
    warmup_s: f64,
    seed: u64,
    parallelism: Option<usize>,
    trace_days: usize,
    trace_step: TimeSpan,
    mean_days_between_failures: f64,
    replacement_lag_days: usize,
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
            warmup_s: 1.0,
            seed: 42,
            parallelism: None,
            trace_days: 30,
            trace_step: TimeSpan::from_minutes(5.0),
            mean_days_between_failures: 1_500.0,
            replacement_lag_days: 7,
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
            warmup_s: 1.0,
            seed: 42,
            parallelism: None,
            trace_days: 10,
            trace_step: TimeSpan::from_minutes(15.0),
            mean_days_between_failures: 1_500.0,
            replacement_lag_days: 7,
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
        let west = CaisoSynthesizer::new(self.seed, self.trace_days)
            .step(self.trace_step)
            .intensity_trace();
        let half_day_steps = (TimeSpan::from_hours(12.0).seconds() / west.step().seconds()).round();
        let mut values = west.values().to_vec();
        let shift = half_day_steps as usize % values.len();
        values.rotate_left(shift);
        let east = IntensityTrace::new(west.step(), values);
        (west, east)
    }

    /// One cohort slot for `device`, with its Reuse-Factor replacement
    /// share, light-medium serving power and measured power curve.
    fn cohort_slot(device: &DeviceSpec, capacity_qps: f64) -> CohortDevice {
        let reuse = device
            .components()
            .expect("cohort phones carry component breakdowns")
            .reuse_factor(&ComponentBreakdown::compute_node_role());
        let replacement = second_life_embodied(device.embodied(), &reuse);
        let battery = device.battery().expect("cohort phones carry batteries");
        let curve = device.power();
        CohortDevice::new(
            device.name(),
            device.average_power(&LoadProfile::light_medium()),
            battery,
            replacement,
            capacity_qps,
        )
        .power(curve.idle(), curve.at_full_load() - curve.idle())
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
            devices.push(Self::cohort_slot(&pixel, pixel_qps));
        }
        for i in 0..NEXUSES_PER_SITE {
            nodes.push(NodeSpec::from_device(format!("nexus-{i}"), &nexus));
            devices.push(Self::cohort_slot(&nexus, nexus_qps));
        }

        let app = social_network();
        let placement =
            Placement::swarm_spread(&app, &nodes, 11).map_err(DeploymentError::Placement)?;
        let sim = Simulation::new(app, nodes, placement, NetworkModel::phone_wifi())
            .map_err(DeploymentError::Sim)?;

        let install: GramsCo2e = devices
            .iter()
            .map(CohortDevice::replacement_embodied)
            .sum::<GramsCo2e>()
            + GramsCo2e::from_kilograms(FAN_EMBODIED_KG);

        let site =
            LifecycleSite::try_cohort(name, &sim, GridRegion::new(name, trace), devices, install)
                .map_err(DeploymentError::SiteConfig)?
                .request_type(SN_COMPOSE_POST)
                .overhead_power(Watts::new(FAN_WATTS))
                .failures(self.mean_days_between_failures, self.replacement_lag_days)
                .map_err(DeploymentError::SiteConfig)?;
        Ok(site)
    }

    /// Builds the rented c5.9xlarge backend on a flat gas-heavy grid: its
    /// embodied share amortises linearly over a four-year lease instead of
    /// landing up front.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if the deployment cannot be assembled.
    pub fn datacenter_site(&self, name: &str) -> Result<LifecycleSite, DeploymentError> {
        let app = social_network();
        let sim = build_deployment(DeploymentKind::C5(C5Size::XLarge9), &app, 11)?;
        let c5 = catalog::c5_instance(C5Size::XLarge9);
        let trace = IntensityTrace::constant(
            CarbonIntensity::from_grams_per_kwh(DATACENTER_GRID_G_PER_KWH),
            TimeSpan::from_hours(1.0),
            TimeSpan::from_days(1.0),
        );
        Ok(LifecycleSite::try_leased(
            name,
            &sim,
            GridRegion::new("gas-heavy", trace),
            CloudletWorkload::SocialNetworkWrite.paper_c5_9xlarge_qps(),
        )
        .map_err(DeploymentError::SiteConfig)?
        .request_type(SN_COMPOSE_POST)
        .power(Watts::new(120.0), Watts::new(90.0))
        .embodied(c5.embodied(), TimeSpan::from_years(4.0)))
    }

    fn config(&self) -> LifecycleConfig {
        let mut config = LifecycleConfig::new(self.years)
            .windows_per_day(self.windows_per_day)
            .sim_slice_s(self.sim_slice_s)
            .warmup_s(self.warmup_s)
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
            DiurnalSchedule::office_day(BASE_QPS),
            RoutingPolicy::carbon_aware(),
            self.config(),
        ))
    }

    /// Assembles the single-site datacenter fleet serving the same
    /// demand.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if the site cannot be built.
    pub fn build_datacenter_fleet(&self) -> Result<LifecycleSim, DeploymentError> {
        let site = self.datacenter_site("datacenter")?;
        Ok(LifecycleSim::new(
            vec![site],
            DiurnalSchedule::office_day(BASE_QPS),
            RoutingPolicy::Static,
            self.config(),
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
