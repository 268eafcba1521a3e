//! The carbon-aware fleet study: the paper's cloudlet serving results
//! (Figures 7–9) coupled end to end.
//!
//! Two junk-phone cloudlets sit in two grid regions whose diurnal carbon
//! intensity curves are half a day out of phase (a synthetic CAISO-like
//! grid and its antipodal twin), with a c5.9xlarge datacenter backend on a
//! flat gas-heavy grid. A diurnal compose-post load is routed across the
//! three either with the paper's static capacity-proportional placement or
//! with the carbon-aware policy that fills the cleanest region first. The
//! three sites are leased [`LifecycleSite`]s of a one-day [`LifecycleSim`],
//! which measures serving performance per window with the compiled
//! microsim engine and integrates operational plus amortised embodied
//! carbon into gCO2e per request.

use junkyard_carbon::convert::count_f64;
use junkyard_carbon::embodied::battery_replacement_carbon;
use junkyard_carbon::units::{TimeSpan, Watts};
use junkyard_cluster::Peripheral;
use junkyard_devices::catalog;
use junkyard_devices::components::ComponentBreakdown;
use junkyard_fleet::lifecycle::{LifecycleConfig, LifecycleResult, LifecycleSim, LifecycleSite};
use junkyard_fleet::routing::RoutingPolicy;
use junkyard_fleet::schedule::DiurnalSchedule;
use junkyard_fleet::site::{second_life_embodied, smart_charging_scale, FleetSite, GridRegion};
use junkyard_grid::synth::CaisoSynthesizer;
use junkyard_grid::trace::IntensityTrace;
use junkyard_microsim::app::{social_network, SN_COMPOSE_POST};

use crate::cloudlet_study::CloudletWorkload;
use crate::deployments::{
    build_deployment, c5_datacenter_site, two_region_traces, DeploymentError, DeploymentKind,
    PHONE_SERVING_WATTS,
};
use crate::report::{Chart, SeriesLine, Table};

/// Peak-hour base demand of the day curve, requests per second.
const BASE_QPS: f64 = 4_000.0;

/// Days of grid trace per region: the study serves one day, and smart
/// charging plans each day from the day before it.
const TRACE_DAYS: usize = 2;

/// Warm-up simulated before each measured slice, seconds.
const WARMUP_S: f64 = 1.0;

/// Configuration of the two-region fleet study.
#[derive(Debug, Clone)]
pub struct FleetStudy {
    windows_per_day: usize,
    sim_slice_s: f64,
    seed: u64,
    parallelism: Option<usize>,
}

impl FleetStudy {
    /// The full-scale study: one simulated day in 24 one-hour windows, a
    /// 4-second measured slice per window load, a 4,000-QPS peak-hour
    /// demand.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            windows_per_day: 24,
            sim_slice_s: 4.0,
            seed: 42,
            parallelism: None,
        }
    }

    /// A reduced study for quick runs and tests: six 4-hour windows with
    /// short slices.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            windows_per_day: 6,
            sim_slice_s: 1.0,
            seed: 42,
            parallelism: None,
        }
    }

    /// Overrides the random seed (regions, workloads and routing stay
    /// deterministic per seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the fleet's worker threads; `1` forces serial runs.
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

    /// The synthetic two-region pair: a CAISO-like west grid and its
    /// antipodal twin whose day curve is shifted by twelve hours, so the
    /// solar trough of one lines up with the evening peak of the other.
    #[must_use]
    pub fn two_region_traces(&self) -> (IntensityTrace, IntensityTrace) {
        two_region_traces(CaisoSynthesizer::new(self.seed, TRACE_DAYS))
    }

    /// Builds one junk-phone cloudlet site on `trace`'s grid.
    ///
    /// Couples all four substrate crates: the compiled microsim serves the
    /// traffic, the grid trace prices each window's energy, the battery
    /// crate's smart-charging policy scales operational carbon, and the
    /// carbon crate's Reuse Factor (Eq. 8) plus battery-replacement
    /// schedule (Eq. 10) set the amortised embodied bill.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if the cloudlet cannot be assembled.
    pub fn phone_site(
        &self,
        name: &str,
        trace: IntensityTrace,
    ) -> Result<FleetSite, DeploymentError> {
        let app = social_network();
        let sim = build_deployment(DeploymentKind::PhoneCloudlet, &app, 11)?;
        let pixel = catalog::pixel_3a();
        let battery = pixel.battery().expect("the Pixel has a battery");
        let amortization = TimeSpan::from_years(3.0);

        // Embodied: the non-reused component share of ten phones (Reuse
        // Factor, Eq. 8), the new server fan, and the replacement battery
        // packs consumed over the amortisation lifetime (Eq. 10).
        let reuse = pixel
            .components()
            .expect("the Pixel has a component breakdown")
            .reuse_factor(&ComponentBreakdown::compute_node_role());
        let per_phone = second_life_embodied(pixel.embodied(), &reuse);
        let replacements = battery_replacement_carbon(
            battery.embodied(),
            amortization,
            battery.projected_lifetime(Watts::new(PHONE_SERVING_WATTS)),
        );
        let fan = Peripheral::server_fan(1);
        let embodied = per_phone * 10.0 + fan.total_embodied() + replacements * 10.0;

        // Operational: smart charging shifts wall draw into the region's
        // cleanest hours; its median daily saving scales the site's
        // operational carbon (Section 4.3).
        let charging_scale = smart_charging_scale(Watts::new(PHONE_SERVING_WATTS), battery, &trace);

        // Idle/full-load power from the measured Pixel curve, plus the fan.
        let idle = Watts::new(10.0 * pixel.power().idle().value()) + fan.total_power();
        let dynamic = Watts::new(
            10.0 * (pixel.power().at_full_load().value() - pixel.power().idle().value()),
        );

        Ok(FleetSite::new(
            name,
            &sim,
            GridRegion::new(name, trace),
            self.phone_capacity_qps(),
        )
        .request_type(SN_COMPOSE_POST)
        .power(idle, dynamic)
        .embodied(embodied, amortization)
        .operational_scale(charging_scale))
    }

    /// Sustainable compose-post throughput of one phone cloudlet (the
    /// paper's measured saturation point).
    #[must_use]
    pub fn phone_capacity_qps(&self) -> f64 {
        CloudletWorkload::SocialNetworkWrite.paper_phone_qps()
    }

    /// Assembles the three-site fleet under `policy`: a one-day
    /// [`LifecycleSim`] whose sites are all leased, so capacity, power and
    /// embodied carbon hold every window.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if any site cannot be built.
    pub fn build_fleet(&self, policy: RoutingPolicy) -> Result<LifecycleSim, DeploymentError> {
        let (west, east) = self.two_region_traces();
        let sites = vec![
            LifecycleSite::try_leased(self.phone_site("cloudlet-west", west)?)?,
            LifecycleSite::try_leased(self.phone_site("cloudlet-east", east)?)?,
            LifecycleSite::try_leased(c5_datacenter_site("datacenter")?)?,
        ];
        let schedule = DiurnalSchedule::office_day(BASE_QPS);
        let mut config = LifecycleConfig::days(1)
            .windows_per_day(self.windows_per_day)
            .sim_slice_s(self.sim_slice_s)
            .warmup_s(WARMUP_S)
            .seed(self.seed);
        if let Some(workers) = self.parallelism {
            config = config.parallelism(workers);
        }
        Ok(LifecycleSim::new(sites, schedule, policy, config))
    }

    /// Runs the study: the static-placement baseline and the carbon-aware
    /// policy over the same fleet, schedule and seeds.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if a deployment cannot be built or a
    /// simulation fails.
    pub fn run(&self) -> Result<FleetStudyResult, DeploymentError> {
        let run = |policy| {
            self.build_fleet(policy)?
                .run()
                .map_err(DeploymentError::Sim)
        };
        Ok(FleetStudyResult {
            baseline: run(RoutingPolicy::Static)?,
            carbon_aware: run(RoutingPolicy::CarbonAware)?,
        })
    }
}

/// Result of the fleet study: the same fleet under both routing policies.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStudyResult {
    baseline: LifecycleResult,
    carbon_aware: LifecycleResult,
}

impl FleetStudyResult {
    /// The static-placement baseline.
    #[must_use]
    pub fn baseline(&self) -> &LifecycleResult {
        &self.baseline
    }

    /// The carbon-aware run.
    #[must_use]
    pub fn carbon_aware(&self) -> &LifecycleResult {
        &self.carbon_aware
    }

    /// Percentage of carbon per request the carbon-aware policy saves over
    /// the static baseline.
    #[must_use]
    pub fn savings_percent(&self) -> f64 {
        let base = self
            .baseline
            .grams_per_request()
            .expect("the study offers traffic");
        let aware = self
            .carbon_aware
            .grams_per_request()
            .expect("the study offers traffic");
        (1.0 - aware / base) * 100.0
    }

    /// Carbon per request at each site over the day, one line per policy.
    /// A site the policy sent no traffic to has no point.
    #[must_use]
    pub fn chart(&self) -> Chart {
        let mut chart = Chart::new(
            "fleet — carbon per request by site",
            "site (0 = cloudlet-west, 1 = cloudlet-east, 2 = datacenter)",
            "mgCO2e/request",
        );
        for result in [&self.baseline, &self.carbon_aware] {
            let points = (0..result.site_names().len())
                .filter_map(|site| {
                    let cell = result.cell(0, site);
                    (cell.requests() > 0.0).then(|| {
                        let grams = cell.carbon().grams() / cell.requests();
                        (count_f64(site), grams * 1_000.0)
                    })
                })
                .collect();
            chart.push_line(SeriesLine::new(result.policy().label(), points));
        }
        chart
    }

    /// Per-site accounting table across both policies.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "fleet carbon accounting by site",
            vec![
                "policy".into(),
                "site".into(),
                "requests (M)".into(),
                "carbon (kg)".into(),
                "worst tail (ms)".into(),
            ],
        );
        for result in [&self.baseline, &self.carbon_aware] {
            for (site, name) in result.site_names().iter().enumerate() {
                // One day is one (year, site) cell per site.
                let cell = result.cell(0, site);
                table.push_row(vec![
                    result.policy().label().to_owned(),
                    name.clone(),
                    format!("{:.3}", cell.requests() / 1e6),
                    format!("{:.2}", cell.carbon().kilograms()),
                    format!("{:.1}", cell.worst_tail_ms()),
                ]);
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carbon_aware_routing_cuts_carbon_per_request() {
        let result = FleetStudy::quick().run().unwrap();
        let base = result.baseline().grams_per_request().unwrap();
        let aware = result.carbon_aware().grams_per_request().unwrap();
        assert!(
            aware < base,
            "carbon-aware {aware} should beat static {base}"
        );
        assert!(result.savings_percent() > 0.0);
        // Both policies serve the same demand, and nothing is shed (the
        // fleet's aggregate capacity covers the evening peak).
        assert!(
            (result.baseline().total_requests() - result.carbon_aware().total_requests()).abs()
                < 1e-6
        );
        assert_eq!(result.baseline().shed_requests(), 0.0);
    }

    #[test]
    fn study_is_deterministic_across_thread_counts() {
        let serial = FleetStudy::quick().parallelism(1).run().unwrap();
        let threaded = FleetStudy::quick().parallelism(4).run().unwrap();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn report_artifacts_cover_both_policies() {
        let result = FleetStudy::quick().run().unwrap();
        let chart = result.chart();
        assert_eq!(chart.lines().len(), 2);
        assert!(chart.line("static").is_some());
        assert!(chart.line("carbon-aware").is_some());
        let table = result.table();
        assert_eq!(table.rows().len(), 6);
    }

    #[test]
    fn two_region_traces_are_half_a_day_out_of_phase() {
        let study = FleetStudy::quick();
        let (west, east) = study.two_region_traces();
        assert_eq!(west.len(), east.len());
        let offset = TimeSpan::from_hours(12.0);
        for h in [0.0, 6.0, 13.0, 20.0] {
            let t = TimeSpan::from_hours(h);
            assert_eq!(west.value_at(t + offset), east.value_at(t));
        }
    }

    #[test]
    fn phone_sites_carry_embodied_and_smart_charging() {
        let study = FleetStudy::quick();
        let (west, _) = study.two_region_traces();
        let site = study.phone_site("west", west).unwrap();
        // Reuse factor < 1 leaves a non-zero embodied share; battery
        // replacements and the fan add to it.
        let fan = Peripheral::server_fan(1).total_embodied();
        assert!(site.embodied_over(TimeSpan::from_years(3.0)) > fan);
        // Smart charging saves a few percent of operational carbon.
        let scale = site.operational_scale_factor();
        assert!(scale < 1.0 && scale > 0.8, "scale {scale}");
    }
}
