//! Compute nodes the microservices are placed on.

use std::fmt;

use junkyard_devices::benchmark::Benchmark;
use junkyard_devices::device::DeviceSpec;

/// Single-core SGEMM throughput of the reference core (one Pixel 3A big
/// core), used to normalise per-core speeds.
pub const REFERENCE_SINGLE_CORE_SGEMM: f64 = 8.84;

/// A node of the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    name: String,
    cores: u32,
    core_speed: f64,
    memory_gib: f64,
}

impl NodeSpec {
    /// Creates a node with `cores` cores, each `core_speed` times as fast as
    /// the reference (Pixel 3A) core, and `memory_gib` of RAM.
    ///
    /// # Panics
    ///
    /// Panics if the core count is zero or the speed/memory are not
    /// positive.
    #[must_use]
    pub fn new(name: impl Into<String>, cores: u32, core_speed: f64, memory_gib: f64) -> Self {
        assert!(cores > 0, "a node needs at least one core");
        assert!(core_speed > 0.0, "core speed must be positive");
        assert!(memory_gib > 0.0, "memory must be positive");
        Self {
            name: name.into(),
            cores,
            core_speed,
            memory_gib,
        }
    }

    /// A Pixel 3A phone node: 8 cores at 0.59 of the reference core, 4 GiB.
    ///
    /// The Pixel 3A's two Cortex-A76 big cores and six A55 little cores are
    /// modelled as eight homogeneous cores whose aggregate (4.7 reference
    /// cores) matches the handset's effective capacity on branchy,
    /// memory-bound microservice code.
    #[must_use]
    pub fn pixel_3a(index: usize) -> Self {
        Self::new(format!("pixel-{index:02}"), 8, 0.59, 4.0)
    }

    /// An AWS C5 instance node with the given vCPU count and memory.
    ///
    /// Each vCPU of the Xeon Platinum 8124M is one hyperthread; on branchy,
    /// cache-miss-heavy microservice code it is modelled at 0.60 reference
    /// cores, calibrated so that a c5.9xlarge lands in the same performance
    /// band as the ten-phone cloudlet, as the paper measures (Figure 7).
    #[must_use]
    pub fn c5(name: impl Into<String>, vcpus: u32, memory_gib: f64) -> Self {
        Self::new(name, vcpus, 0.60, memory_gib)
    }

    /// Builds a node from a device specification: core count and memory from
    /// the spec, per-core speed from its single-core SGEMM score relative to
    /// the reference core, derated so the node's total matches its
    /// multi-core score.
    ///
    /// # Panics
    ///
    /// Panics if the device has no SGEMM score.
    #[must_use]
    pub fn from_device(name: impl Into<String>, device: &DeviceSpec) -> Self {
        let score = device
            .benchmarks()
            .get(Benchmark::Sgemm)
            .expect("device needs an SGEMM score to derive core speed");
        // Use the multi-core score to size total capacity: it already folds
        // in the device's real parallel efficiency.
        let total_speed = score.multi_core() / REFERENCE_SINGLE_CORE_SGEMM;
        let per_core = total_speed / f64::from(device.cores());
        Self::new(name, device.cores(), per_core, device.memory_gib())
    }

    /// Node name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Per-core speed relative to the reference core.
    #[must_use]
    pub fn core_speed(&self) -> f64 {
        self.core_speed
    }

    /// Memory capacity in GiB.
    #[must_use]
    pub fn memory_gib(&self) -> f64 {
        self.memory_gib
    }

    /// Total compute capacity in reference-core units.
    #[must_use]
    pub fn capacity_ref_cores(&self) -> f64 {
        f64::from(self.cores) * self.core_speed
    }

    /// Wall-clock seconds one of this node's cores needs for `cpu_ms`
    /// reference-core milliseconds of work.
    ///
    /// Both simulation engines (the reference event loop and the compiled
    /// hot path) use this single expression, so precomputed service times
    /// stay bit-identical to the reference's per-event arithmetic.
    #[must_use]
    pub fn service_secs(&self, cpu_ms: f64) -> f64 {
        cpu_ms / 1_000.0 / self.core_speed
    }
}

impl fmt::Display for NodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} cores x {:.2}, {:.0} GiB)",
            self.name, self.cores, self.core_speed, self.memory_gib
        )
    }
}

/// Builds the paper's ten-phone cloudlet as simulation nodes.
#[must_use]
pub fn ten_pixel_cloudlet() -> Vec<NodeSpec> {
    (0..10).map(NodeSpec::pixel_3a).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use junkyard_devices::catalog::{self, C5Size};

    #[test]
    fn pixel_node_capacity_is_about_4_7_reference_cores() {
        let node = NodeSpec::pixel_3a(0);
        assert!(
            (node.capacity_ref_cores() - 4.7).abs() < 0.1,
            "{}",
            node.capacity_ref_cores()
        );
        assert_eq!(node.cores(), 8);
    }

    #[test]
    fn c5_9xlarge_is_in_the_same_band_as_ten_phones() {
        // The paper's Figure 7 puts the ten-phone cloudlet between a
        // c5.4xlarge and a c5.12xlarge; the aggregate capacities reflect
        // that (the cloudlet trades raw capacity for network latency).
        let phones: f64 = ten_pixel_cloudlet()
            .iter()
            .map(NodeSpec::capacity_ref_cores)
            .sum();
        let c5_4xl = NodeSpec::c5("c5.4xlarge", 16, 32.0).capacity_ref_cores();
        let c5_12xl = NodeSpec::c5("c5.12xlarge", 48, 96.0).capacity_ref_cores();
        assert!(c5_4xl < phones, "4xl {c5_4xl} vs phones {phones}");
        assert!(c5_12xl > phones * 0.55, "12xl {c5_12xl} vs phones {phones}");
    }

    #[test]
    fn from_device_matches_multicore_capacity() {
        let node = NodeSpec::from_device("pixel", &catalog::pixel_3a());
        assert!((node.capacity_ref_cores() - 39.0 / 8.84).abs() < 1e-9);
        let c5 = NodeSpec::from_device("c5", &catalog::c5_instance(C5Size::XLarge9));
        // 36 vCPUs at 0.75 parallel efficiency of a 70-Gflop core.
        assert!(c5.capacity_ref_cores() > 100.0);
        assert_eq!(c5.cores(), 36);
        assert!(c5.core_speed() > 1.0);
    }

    #[test]
    fn ten_phone_cloudlet_has_ten_nodes_with_unique_names() {
        let nodes = ten_pixel_cloudlet();
        assert_eq!(nodes.len(), 10);
        let mut names: Vec<&str> = nodes.iter().map(NodeSpec::name).collect();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = NodeSpec::new("x", 0, 1.0, 1.0);
    }

    #[test]
    fn display_mentions_cores() {
        assert!(NodeSpec::pixel_3a(3).to_string().contains("cores"));
    }

    #[test]
    fn service_secs_scales_with_core_speed() {
        let node = NodeSpec::new("x", 4, 2.0, 1.0);
        // 10 reference-core ms on a 2x core takes 5 ms of wall clock.
        assert!((node.service_secs(10.0) - 0.005).abs() < 1e-12);
    }
}
