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

    /// Whether the topology requires cellular connectivity on some devices.
    #[must_use]
    pub fn needs_cellular(self) -> bool {
        matches!(self, NetworkTopology::WifiTree { .. })
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
    fn only_the_wifi_tree_needs_cellular() {
        assert!(!NetworkTopology::wired_gigabit().needs_cellular());
        assert!(NetworkTopology::paper_wifi_tree().needs_cellular());
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
