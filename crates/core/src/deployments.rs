//! Ready-made simulation deployments for the Section 6 evaluation: the
//! ten-phone junkyard cloudlet and the EC2 C5 comparison instances, the
//! rented c5.9xlarge datacenter site every study compares against, and
//! the per-phone serving power the studies share (the cloudlet's server
//! fan is `junkyard_cluster`'s `Peripheral::server_fan`).

use junkyard_carbon::units::{CarbonIntensity, TimeSpan, Watts};
use junkyard_devices::catalog::{self, C5Size};
use junkyard_fleet::site::{FleetSite, GridRegion};
use junkyard_grid::synth::CaisoSynthesizer;
use junkyard_grid::trace::IntensityTrace;
use junkyard_microsim::app::{social_network, Application, SN_COMPOSE_POST};
use junkyard_microsim::network::NetworkModel;
use junkyard_microsim::node::{ten_pixel_cloudlet, NodeSpec};
use junkyard_microsim::placement::{Placement, PlacementError};
use junkyard_microsim::sim::{SimError, Simulation};

use crate::cloudlet_study::CloudletWorkload;

/// Serving power per phone under load, watts (Section 6.3).
pub(crate) const PHONE_SERVING_WATTS: f64 = 1.7;
/// Flat carbon intensity of the datacenter's gas-heavy grid, gCO2e/kWh.
const DATACENTER_GRID_G_PER_KWH: f64 = 420.0;

/// Identifies one of the deployments compared in Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DeploymentKind {
    /// The ten-phone Pixel 3A cloudlet over WiFi.
    PhoneCloudlet,
    /// A single EC2 C5 instance with a colocated load generator.
    C5(C5Size),
}

impl DeploymentKind {
    /// All deployments of Figure 7, phones first.
    #[must_use]
    pub fn figure7_set() -> Vec<DeploymentKind> {
        let mut set = vec![DeploymentKind::PhoneCloudlet];
        set.extend(C5Size::ALL.iter().map(|s| DeploymentKind::C5(*s)));
        set
    }

    /// Display label used in figure legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DeploymentKind::PhoneCloudlet => "Phones",
            DeploymentKind::C5(size) => size.label(),
        }
    }
}

/// Errors raised while building a deployment.
#[derive(Debug)]
pub enum DeploymentError {
    /// Service placement failed.
    Placement(PlacementError),
    /// Simulation assembly failed.
    Sim(SimError),
    /// A fleet site was configured with an option that does not apply to
    /// its backend kind (e.g. device failures on a leased site).
    SiteConfig(junkyard_fleet::lifecycle::SiteConfigError),
}

impl std::fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeploymentError::Placement(e) => write!(f, "placement failed: {e}"),
            DeploymentError::Sim(e) => write!(f, "simulation setup failed: {e}"),
            DeploymentError::SiteConfig(e) => write!(f, "site configuration rejected: {e}"),
        }
    }
}

impl std::error::Error for DeploymentError {}

impl From<junkyard_fleet::lifecycle::SiteConfigError> for DeploymentError {
    fn from(value: junkyard_fleet::lifecycle::SiteConfigError) -> Self {
        DeploymentError::SiteConfig(value)
    }
}

impl From<PlacementError> for DeploymentError {
    fn from(value: PlacementError) -> Self {
        DeploymentError::Placement(value)
    }
}

impl From<SimError> for DeploymentError {
    fn from(value: SimError) -> Self {
        DeploymentError::Sim(value)
    }
}

/// Builds the simulation for one deployment of an application.
///
/// The phone cloudlet spreads services across ten Pixel 3A nodes with the
/// swarm scheduler and talks over shared WiFi; the C5 deployments place
/// everything on one node over loopback and colocate the load generator, as
/// in the paper's methodology.
///
/// # Errors
///
/// Returns [`DeploymentError`] if placement or simulation assembly fails.
pub fn build_deployment(
    kind: DeploymentKind,
    app: &Application,
    seed: u64,
) -> Result<Simulation, DeploymentError> {
    match kind {
        DeploymentKind::PhoneCloudlet => {
            let nodes = ten_pixel_cloudlet();
            let placement = Placement::swarm_spread(app, &nodes, seed)?;
            Ok(Simulation::new(
                app.clone(),
                nodes,
                placement,
                NetworkModel::phone_wifi(),
            )?)
        }
        DeploymentKind::C5(size) => {
            let device = catalog::c5_instance(size);
            let node = NodeSpec::c5(device.name(), device.cores(), device.memory_gib());
            let placement = Placement::single_node(app);
            Ok(Simulation::new(
                app.clone(),
                vec![node],
                placement,
                NetworkModel::single_node_loopback(),
            )?
            .with_colocated_client(true))
        }
    }
}

/// Builds the rented c5.9xlarge datacenter site the studies compare the
/// cloudlets against: the colocated single-node deployment serving
/// compose-post requests at the paper's measured throughput, from a flat
/// gas-heavy grid (a one-day trace, which every horizon tiles). The paper
/// cites 140.7 W at the 10–30 % utilisation it observed; the site splits
/// that into a dominant idle floor plus a utilisation term, and amortises
/// the instance's embodied share linearly over a four-year lease.
///
/// # Errors
///
/// Returns [`DeploymentError`] if the deployment cannot be assembled.
pub fn c5_datacenter_site(name: &str) -> Result<FleetSite, DeploymentError> {
    let sim = build_deployment(DeploymentKind::C5(C5Size::XLarge9), &social_network(), 11)?;
    let trace = IntensityTrace::constant(
        CarbonIntensity::from_grams_per_kwh(DATACENTER_GRID_G_PER_KWH),
        TimeSpan::from_hours(1.0),
        TimeSpan::from_days(1.0),
    );
    Ok(FleetSite::new(
        name,
        &sim,
        GridRegion::new("gas-heavy", trace),
        CloudletWorkload::SocialNetworkWrite.paper_c5_9xlarge_qps(),
    )
    .request_type(SN_COMPOSE_POST)
    .power(Watts::new(120.0), Watts::new(90.0))
    .embodied(
        catalog::c5_instance(C5Size::XLarge9).embodied(),
        TimeSpan::from_years(4.0),
    ))
}

/// The two-region grid pair the studies share: `west`'s CAISO-like trace
/// and its antipodal twin, rotated by twelve hours so the solar trough of
/// one lines up with the evening peak of the other.
pub(crate) fn two_region_traces(west: CaisoSynthesizer) -> (IntensityTrace, IntensityTrace) {
    let west = west.intensity_trace();
    let half_day_steps = (TimeSpan::from_hours(12.0).seconds() / west.step().seconds()).round();
    let mut values = west.values().to_vec();
    let shift = half_day_steps as usize % values.len();
    values.rotate_left(shift);
    let east = IntensityTrace::new(west.step(), values);
    (west, east)
}

#[cfg(test)]
mod tests {
    use super::*;
    use junkyard_microsim::app::hotel_reservation;

    #[test]
    fn figure7_set_has_four_deployments() {
        let set = DeploymentKind::figure7_set();
        assert_eq!(set.len(), 4);
        assert_eq!(set[0].label(), "Phones");
        assert_eq!(set[3].label(), "c5.12xlarge");
    }

    #[test]
    fn phone_deployment_spreads_across_ten_nodes() {
        let sim =
            build_deployment(DeploymentKind::PhoneCloudlet, &hotel_reservation(), 11).unwrap();
        assert_eq!(sim.nodes().len(), 10);
        let occupied = (0..10)
            .filter(|n| !sim.placement().services_on(*n).is_empty())
            .count();
        assert_eq!(occupied, 10);
    }

    #[test]
    fn c5_deployment_is_a_single_colocated_node() {
        let sim = build_deployment(
            DeploymentKind::C5(C5Size::XLarge9),
            &hotel_reservation(),
            11,
        )
        .unwrap();
        assert_eq!(sim.nodes().len(), 1);
        assert_eq!(sim.nodes()[0].cores(), 36);
        assert_eq!(
            sim.placement().services_on(0).len(),
            hotel_reservation().services().len()
        );
    }
}
