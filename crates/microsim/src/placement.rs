//! Service placement: which node hosts which microservice.
//!
//! The paper's testbed runs Docker Swarm, which spreads the services of the
//! `docker-compose-swarm.yml` file across the ten phones subject to their
//! memory. [`Placement::swarm_spread`] reproduces that behaviour with a
//! deterministic, seeded spreading heuristic; [`Placement::single_node`]
//! models the EC2 deployments where every service shares one machine.

use std::collections::BTreeMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::app::Application;
use crate::node::NodeSpec;
use crate::service::ServiceSpec;

/// Error returned when an application cannot be placed on a cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// The cluster does not have enough total memory for the application.
    InsufficientMemory {
        /// Memory the application needs, GiB.
        required_gib: f64,
        /// Memory the cluster offers, GiB.
        available_gib: f64,
    },
    /// A single service is larger than the largest node.
    ServiceTooLarge {
        /// The offending service.
        service: String,
    },
    /// A manual placement referenced an unknown node index.
    UnknownNode {
        /// The offending node index.
        node: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::InsufficientMemory {
                required_gib,
                available_gib,
            } => write!(
                f,
                "application needs {required_gib:.1} GiB but the cluster only has {available_gib:.1} GiB"
            ),
            PlacementError::ServiceTooLarge { service } => {
                write!(f, "service {service} does not fit on any node")
            }
            PlacementError::UnknownNode { node } => write!(f, "placement references unknown node {node}"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// A mapping from service name to hosting node index.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Placement {
    assignments: BTreeMap<String, usize>,
}

impl Placement {
    /// Places every service of the application on node 0 (the single-node
    /// EC2 deployments of Section 6.1).
    #[must_use]
    pub fn single_node(app: &Application) -> Self {
        let assignments = app
            .services()
            .iter()
            .map(|s| (s.name().to_owned(), 0))
            .collect();
        Self { assignments }
    }

    /// Spreads the application's services across the nodes the way Docker
    /// Swarm's spread strategy does: services are considered in descending
    /// memory order (with a seeded shuffle breaking ties) and each goes to
    /// the node hosting the fewest services so far, breaking ties by the
    /// most free memory, subject to the node having room.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if the services cannot fit.
    pub fn swarm_spread(
        app: &Application,
        nodes: &[NodeSpec],
        seed: u64,
    ) -> Result<Self, PlacementError> {
        let required: f64 = app.total_memory_gib();
        let available: f64 = nodes.iter().map(NodeSpec::memory_gib).sum();
        if required > available {
            return Err(PlacementError::InsufficientMemory {
                required_gib: required,
                available_gib: available,
            });
        }

        let mut services: Vec<&ServiceSpec> = app.services().iter().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        services.shuffle(&mut rng);
        services.sort_by(|a, b| {
            b.memory_gib()
                .partial_cmp(&a.memory_gib())
                .expect("memory footprints are finite")
        });

        let mut free: Vec<f64> = nodes.iter().map(NodeSpec::memory_gib).collect();
        let mut counts: Vec<usize> = vec![0; nodes.len()];
        let mut assignments = BTreeMap::new();
        for service in services {
            let best = (0..nodes.len())
                .filter(|&i| free[i] >= service.memory_gib())
                .min_by(|&a, &b| {
                    counts[a].cmp(&counts[b]).then_with(|| {
                        free[b]
                            .partial_cmp(&free[a])
                            .expect("free memory is finite")
                    })
                })
                .ok_or_else(|| PlacementError::ServiceTooLarge {
                    service: service.name().to_owned(),
                })?;
            free[best] -= service.memory_gib();
            counts[best] += 1;
            assignments.insert(service.name().to_owned(), best);
        }
        Ok(Self { assignments })
    }

    /// Builds a placement from explicit `(service, node)` pairs, validating
    /// node indices against the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::UnknownNode`] for out-of-range node
    /// indices.
    pub fn manual<I, S>(pairs: I, nodes: &[NodeSpec]) -> Result<Self, PlacementError>
    where
        I: IntoIterator<Item = (S, usize)>,
        S: Into<String>,
    {
        let mut assignments = BTreeMap::new();
        for (service, node) in pairs {
            if node >= nodes.len() {
                return Err(PlacementError::UnknownNode { node });
            }
            assignments.insert(service.into(), node);
        }
        Ok(Self { assignments })
    }

    /// The node hosting `service`, if placed.
    #[must_use]
    pub fn node_of(&self, service: &str) -> Option<usize> {
        self.assignments.get(service).copied()
    }

    /// The services hosted on node `node`, in name order.
    #[must_use]
    pub fn services_on(&self, node: usize) -> Vec<&str> {
        self.assignments
            .iter()
            .filter(|(_, n)| **n == node)
            .map(|(s, _)| s.as_str())
            .collect()
    }

    /// Number of placed services.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// `true` if nothing is placed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// `true` if every service of `app` has a node assignment.
    #[must_use]
    pub fn covers(&self, app: &Application) -> bool {
        app.services()
            .iter()
            .all(|s| self.assignments.contains_key(s.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::social_network;
    use crate::node::{ten_pixel_cloudlet, NodeSpec};

    #[test]
    fn single_node_places_everything_on_node_zero() {
        let app = social_network();
        let p = Placement::single_node(&app);
        assert!(p.covers(&app));
        assert!(app
            .services()
            .iter()
            .all(|s| p.node_of(s.name()) == Some(0)));
        assert_eq!(p.services_on(0).len(), app.services().len());
    }

    #[test]
    fn swarm_spread_covers_all_services_and_respects_memory() {
        let app = social_network();
        let nodes = ten_pixel_cloudlet();
        let p = Placement::swarm_spread(&app, &nodes, 7).unwrap();
        assert!(p.covers(&app));
        for (i, node) in nodes.iter().enumerate() {
            let used: f64 = p
                .services_on(i)
                .iter()
                .map(|s| app.service(s).unwrap().memory_gib())
                .sum();
            assert!(used <= node.memory_gib() + 1e-9, "node {i} over-committed");
        }
    }

    #[test]
    fn swarm_spread_actually_spreads() {
        let app = social_network();
        let nodes = ten_pixel_cloudlet();
        let p = Placement::swarm_spread(&app, &nodes, 1).unwrap();
        let occupied = (0..nodes.len())
            .filter(|n| !p.services_on(*n).is_empty())
            .count();
        assert!(occupied >= 8, "only {occupied} of 10 phones used");
    }

    #[test]
    fn swarm_spread_is_deterministic_per_seed() {
        let app = social_network();
        let nodes = ten_pixel_cloudlet();
        let a = Placement::swarm_spread(&app, &nodes, 42).unwrap();
        let b = Placement::swarm_spread(&app, &nodes, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn insufficient_memory_is_an_error() {
        let app = social_network();
        let tiny = vec![NodeSpec::new("tiny", 2, 1.0, 1.0)];
        let err = Placement::swarm_spread(&app, &tiny, 0).unwrap_err();
        assert!(matches!(err, PlacementError::InsufficientMemory { .. }));
        assert!(err.to_string().contains("GiB"));
    }

    #[test]
    fn manual_placement_validates_nodes() {
        let nodes = ten_pixel_cloudlet();
        let ok = Placement::manual([("nginx-web-server", 3usize)], &nodes).unwrap();
        assert_eq!(ok.node_of("nginx-web-server"), Some(3));
        assert_eq!(ok.node_of("unknown"), None);
        let err = Placement::manual([("nginx-web-server", 99usize)], &nodes).unwrap_err();
        assert!(matches!(err, PlacementError::UnknownNode { node: 99 }));
    }
}
