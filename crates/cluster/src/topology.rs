//! Cluster network topologies (Section 4.2).
//!
//! Two deployment cases: an existing-infrastructure case where devices plug
//! into a wired switch, and an in-situ edge case where phones form a tree —
//! groups of five devices, one of which hotspots the others over its WiFi
//! and reaches the outside world over LTE. WiFi is the bandwidth bottleneck:
//! with 150 Mbit/s radios the tree gives each device roughly 18.5 Mbit/s of
//! uplink and downlink.

use std::fmt;

use junkyard_carbon::units::DataRate;

/// How the cluster's devices are networked.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum NetworkTopology {
    /// Devices connect to pre-existing wired switches with the given
    /// per-device uplink capacity.
    WiredSwitch {
        /// Per-device link rate to the switch.
        uplink: DataRate,
    },
    /// Phones organised into hotspot groups: one device per group bridges
    /// the rest to the cellular network over its WiFi radio.
    WifiTree {
        /// Devices per group, including the hotspot (the paper uses 5).
        group_size: u32,
        /// WiFi link rate of the hotspot device.
        wifi_rate: DataRate,
        /// LTE uplink rate of the hotspot device.
        lte_rate: DataRate,
    },
}

impl NetworkTopology {
    /// The paper's wired-datacenter assumption: 1 Gbps per device.
    #[must_use]
    pub fn wired_gigabit() -> Self {
        NetworkTopology::WiredSwitch {
            uplink: DataRate::from_gigabits_per_sec(1.0),
        }
    }

    /// The paper's in-situ tree: groups of five Nexus-class phones with
    /// 150 Mbit/s WiFi and an LTE uplink.
    #[must_use]
    pub fn paper_wifi_tree() -> Self {
        NetworkTopology::WifiTree {
            group_size: 5,
            wifi_rate: DataRate::from_megabits_per_sec(150.0),
            lte_rate: DataRate::from_megabits_per_sec(50.0),
        }
    }

    /// Usable uplink-plus-downlink capacity available to each device.
    ///
    /// For the WiFi tree the hotspot's WiFi channel is shared by the other
    /// `group_size - 1` devices in both directions, so each device sees
    /// `wifi / (2 * (group_size - 1))` — about 18.5 Mbit/s for the paper's
    /// parameters.
    #[must_use]
    pub fn per_device_capacity(self) -> DataRate {
        match self {
            NetworkTopology::WiredSwitch { uplink } => uplink,
            NetworkTopology::WifiTree {
                group_size,
                wifi_rate,
                ..
            } => {
                let sharers = group_size.saturating_sub(1).max(1);
                wifi_rate / (2.0 * f64::from(sharers))
            }
        }
    }

    /// Whether the topology requires cellular connectivity on some devices.
    #[must_use]
    pub fn needs_cellular(self) -> bool {
        matches!(self, NetworkTopology::WifiTree { .. })
    }

    /// Number of hotspot/gateway devices required for `device_count`
    /// devices (zero for wired clusters).
    #[must_use]
    pub fn gateways_needed(self, device_count: u32) -> u32 {
        match self {
            NetworkTopology::WiredSwitch { .. } => 0,
            NetworkTopology::WifiTree { group_size, .. } => {
                device_count.div_ceil(group_size.max(1))
            }
        }
    }

    /// External (wide-area) capacity of a cluster of `device_count` devices:
    /// the sum of gateway LTE uplinks for the tree, or the wired uplink sum.
    #[must_use]
    pub fn external_capacity(self, device_count: u32) -> DataRate {
        match self {
            NetworkTopology::WiredSwitch { uplink } => uplink * f64::from(device_count),
            NetworkTopology::WifiTree { lte_rate, .. } => {
                lte_rate * f64::from(self.gateways_needed(device_count))
            }
        }
    }
}

impl fmt::Display for NetworkTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkTopology::WiredSwitch { uplink } => write!(f, "wired switch ({uplink}/device)"),
            NetworkTopology::WifiTree { group_size, .. } => {
                write!(f, "WiFi tree (groups of {group_size})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tree_gives_about_18_5_mbit_per_device() {
        let capacity = NetworkTopology::paper_wifi_tree().per_device_capacity();
        assert!(
            (capacity.megabits_per_sec() - 18.75).abs() < 0.5,
            "got {capacity}"
        );
    }

    #[test]
    fn wired_capacity_is_the_uplink() {
        let t = NetworkTopology::wired_gigabit();
        assert!((t.per_device_capacity().gigabits_per_sec() - 1.0).abs() < 1e-9);
        assert!(!t.needs_cellular());
        assert_eq!(t.gateways_needed(100), 0);
    }

    #[test]
    fn tree_gateway_count() {
        let t = NetworkTopology::paper_wifi_tree();
        assert!(t.needs_cellular());
        assert_eq!(t.gateways_needed(10), 2);
        assert_eq!(t.gateways_needed(54), 11);
        assert_eq!(t.gateways_needed(256), 52);
    }

    #[test]
    fn external_capacity_scales_with_gateways() {
        let t = NetworkTopology::paper_wifi_tree();
        let ten = t.external_capacity(10);
        let fifty = t.external_capacity(50);
        assert!(fifty.megabits_per_sec() > ten.megabits_per_sec());
        assert!((ten.megabits_per_sec() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn display_names() {
        assert!(NetworkTopology::wired_gigabit()
            .to_string()
            .contains("wired"));
        assert!(NetworkTopology::paper_wifi_tree()
            .to_string()
            .contains("WiFi tree"));
    }
}
