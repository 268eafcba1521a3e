//! The cloudlet configurations evaluated in Section 5.2 and the ten-phone
//! prototype of Section 6.

use junkyard_devices::catalog;

use crate::cloudlet::CloudletDesign;
use crate::peripherals::Peripheral;
use crate::topology::NetworkTopology;

/// Cloudlet 1: a single, newly manufactured PowerEdge R740 (the baseline).
#[must_use]
pub fn poweredge_baseline() -> CloudletDesign {
    CloudletDesign::new("PowerEdge R740", catalog::poweredge_r740(), 1)
        .newly_manufactured()
        .topology(NetworkTopology::wired_gigabit())
}

/// Cloudlet 2: 17 reused ThinkPad X1 Carbon Gen 3 laptops with smart plugs
/// (4 % smart-charging saving).
#[must_use]
pub fn thinkpad_cloudlet() -> CloudletDesign {
    CloudletDesign::new("ThinkPad x17", catalog::thinkpad_x1_carbon_g3(), 17)
        .with_peripheral(Peripheral::smart_plug(17))
        .smart_charging_savings(0.04)
        .topology(NetworkTopology::wired_gigabit())
}

/// Cloudlet 3: 20 reused ProLiant DL380 G6 servers.
#[must_use]
pub fn proliant_cloudlet() -> CloudletDesign {
    CloudletDesign::new("ProLiant x20", catalog::proliant_dl380_g6(), 20)
        .topology(NetworkTopology::wired_gigabit())
}

/// Cloudlet 4: 54 reused Pixel 3A phones, 20 % management nodes, 54 smart
/// plugs (7 % saving) and one 500 W-rated server fan.
#[must_use]
pub fn pixel_cloudlet() -> CloudletDesign {
    CloudletDesign::new("Pixel 3A x54", catalog::pixel_3a(), 54)
        .management_fraction(0.20)
        .with_peripheral(Peripheral::smart_plug(54))
        .with_peripheral(Peripheral::server_fan(1))
        .smart_charging_savings(0.07)
        .topology(NetworkTopology::paper_wifi_tree())
}

/// Cloudlet 5: 256 reused Nexus 4 phones, 20 % management nodes, 270 smart
/// plugs (7 % saving) and two 500 W-rated server fans.
#[must_use]
pub fn nexus4_cloudlet() -> CloudletDesign {
    CloudletDesign::new("Nexus 4 x256", catalog::nexus_4(), 256)
        .management_fraction(0.20)
        .with_peripheral(Peripheral::smart_plug(270))
        .with_peripheral(Peripheral::server_fan(2))
        .smart_charging_savings(0.07)
        .topology(NetworkTopology::paper_wifi_tree())
}

/// All five Section 5.2 comparison points, in the paper's order.
#[must_use]
pub fn section_5_2_cloudlets() -> Vec<CloudletDesign> {
    vec![
        poweredge_baseline(),
        thinkpad_cloudlet(),
        proliant_cloudlet(),
        pixel_cloudlet(),
        nexus4_cloudlet(),
    ]
}

/// The Section 6 proof-of-concept: ten reused Pixel 3A phones on local WiFi
/// with a single fan.
#[must_use]
pub fn ten_phone_prototype() -> CloudletDesign {
    CloudletDesign::new("Junkyard cloudlet (10x Pixel 3A)", catalog::pixel_3a(), 10)
        .with_peripheral(Peripheral::server_fan(1))
        .topology(NetworkTopology::paper_wifi_tree())
}

#[cfg(test)]
mod tests {
    use super::*;
    use junkyard_devices::power::LoadProfile;

    #[test]
    fn all_five_cloudlets_present_in_order() {
        let cloudlets = section_5_2_cloudlets();
        assert_eq!(cloudlets.len(), 5);
        let counts: Vec<u32> = cloudlets.iter().map(CloudletDesign::device_count).collect();
        assert_eq!(counts, vec![1, 17, 20, 54, 256]);
        assert!(!cloudlets[0].is_reused());
        assert!(cloudlets[1..].iter().all(CloudletDesign::is_reused));
    }

    #[test]
    fn nexus_cluster_burns_more_power_than_the_new_server() {
        // Section 5.2: the Nexus 4 cluster consumes ~456 W versus the
        // PowerEdge's ~309 W, yet is still more carbon-efficient early on.
        let profile = LoadProfile::light_medium();
        let nexus = nexus4_cloudlet().average_power(&profile);
        let server = poweredge_baseline().average_power(&profile);
        assert!(nexus.value() > server.value());
        assert!((server.value() - 308.7).abs() < 1.0);
        assert!(
            nexus.value() > 440.0 && nexus.value() < 620.0,
            "got {nexus}"
        );
    }

    #[test]
    fn pixel_cloudlet_matches_paper_structure() {
        let pixel = pixel_cloudlet();
        assert_eq!(pixel.device_count(), 54);
        assert_eq!(pixel.management_count(), 11);
        assert!((pixel.operational_scale() - 0.93).abs() < 1e-12);
        assert_eq!(pixel.peripherals().len(), 2);
    }

    #[test]
    fn prototype_has_ten_phones() {
        let p = ten_phone_prototype();
        assert_eq!(p.device_count(), 10);
        assert!(p.network().needs_cellular());
    }

    #[test]
    fn smart_charging_only_on_battery_backed_cloudlets() {
        assert_eq!(proliant_cloudlet().operational_scale(), 1.0);
        assert_eq!(poweredge_baseline().operational_scale(), 1.0);
        assert!(thinkpad_cloudlet().operational_scale() < 1.0);
    }
}
