//! Cluster network models.
//!
//! The phone cloudlet communicates over a shared local WiFi network: every
//! inter-phone RPC pays a per-hop latency and its bytes serialise through a
//! shared channel of limited capacity. The single-node EC2 deployments keep
//! all traffic on loopback, where latency is tiny and bandwidth effectively
//! unlimited (the paper's methodology also runs the load generator on the
//! same instance).

use junkyard_carbon::units::DataRate;

/// Network characteristics of a deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    intra_node_latency_ms: f64,
    inter_node_latency_ms: f64,
    client_latency_ms: f64,
    shared_channel: Option<DataRate>,
}

impl NetworkModel {
    /// Creates a network model.
    ///
    /// # Panics
    ///
    /// Panics if any latency is negative.
    #[must_use]
    pub fn new(
        intra_node_latency_ms: f64,
        inter_node_latency_ms: f64,
        client_latency_ms: f64,
        shared_channel: Option<DataRate>,
    ) -> Self {
        assert!(
            intra_node_latency_ms >= 0.0
                && inter_node_latency_ms >= 0.0
                && client_latency_ms >= 0.0,
            "latencies cannot be negative"
        );
        Self {
            intra_node_latency_ms,
            inter_node_latency_ms,
            client_latency_ms,
            shared_channel,
        }
    }

    /// The paper's phone-cloudlet network: all phones and the client share
    /// one local 802.11ac WiFi (modelled at 450 Mbit/s of effective goodput),
    /// ~2 ms per wireless hop, ~0.15 ms for on-phone loopback.
    #[must_use]
    pub fn phone_wifi() -> Self {
        Self::new(0.15, 2.0, 2.0, Some(DataRate::from_megabits_per_sec(450.0)))
    }

    /// A single cloud instance: every hop is loopback, the colocated client
    /// adds almost no network latency, and bandwidth is not a constraint.
    #[must_use]
    pub fn single_node_loopback() -> Self {
        Self::new(0.08, 0.08, 0.20, None)
    }

    /// Latency between the external client and the frontend, ms.
    #[must_use]
    pub fn client_latency_ms(self) -> f64 {
        self.client_latency_ms
    }

    /// Transmission time of `bytes` on the shared channel, in seconds
    /// (zero when there is no shared channel).
    #[must_use]
    pub fn transmission_secs(self, bytes: f64) -> f64 {
        match self.shared_channel {
            Some(rate) if rate.bytes_per_sec() > 0.0 => bytes / rate.bytes_per_sec(),
            _ => 0.0,
        }
    }

    /// One-way latency of a hop between two placed services, in seconds.
    #[must_use]
    pub fn hop_latency_secs(self, same_node: bool) -> f64 {
        if same_node {
            self.intra_node_latency_ms / 1_000.0
        } else {
            self.inter_node_latency_ms / 1_000.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wifi_is_slower_than_loopback() {
        let wifi = NetworkModel::phone_wifi();
        let lo = NetworkModel::single_node_loopback();
        assert!(wifi.hop_latency_secs(false) > lo.hop_latency_secs(false));
        assert!(wifi.shared_channel.is_some());
        assert!(lo.shared_channel.is_none());
    }

    #[test]
    fn transmission_time_matches_channel_rate() {
        let wifi = NetworkModel::phone_wifi();
        // 450 Mbit/s = 56.25 MB/s, so 56.25 KB takes 1 ms.
        let t = wifi.transmission_secs(56_250.0);
        assert!((t - 0.001).abs() < 1e-9);
        assert_eq!(
            NetworkModel::single_node_loopback().transmission_secs(1e9),
            0.0
        );
    }

    #[test]
    fn same_node_hops_are_cheaper() {
        let wifi = NetworkModel::phone_wifi();
        assert!(wifi.hop_latency_secs(true) < wifi.hop_latency_secs(false));
    }

    #[test]
    #[should_panic(expected = "latencies cannot be negative")]
    fn negative_latency_panics() {
        let _ = NetworkModel::new(-1.0, 1.0, 1.0, None);
    }
}
