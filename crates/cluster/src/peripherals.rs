//! Peripherals added to a cloudlet: smart plugs, server fans, switches.
//!
//! Reused phones are "free" in embodied carbon, but the hardware added to
//! operate them as a cluster is not (Section 5.2): smart plugs enable smart
//! charging, COTS server fans provide cooling, and wired clusters need
//! switches. Each peripheral adds embodied carbon (to `C_M`) and electrical
//! power (to `C_C`).

use std::fmt;

use junkyard_carbon::units::{GramsCo2e, Watts};

/// One kind of peripheral and how many of it the cloudlet uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Peripheral {
    label: String,
    embodied_each: GramsCo2e,
    power_each: Watts,
    quantity: u32,
}

impl Peripheral {
    /// Creates a peripheral line item.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        embodied_each: GramsCo2e,
        power_each: Watts,
        quantity: u32,
    ) -> Self {
        Self {
            label: label.into(),
            embodied_each,
            power_each,
            quantity,
        }
    }

    /// A smart plug enabling carbon-aware charging: ~3 kgCO2e embodied,
    /// ~0.5 W overhead (documented estimate; the paper adds one per device
    /// but does not publish per-plug figures).
    #[must_use]
    pub fn smart_plug(quantity: u32) -> Self {
        Self::new(
            "smart plug",
            GramsCo2e::from_kilograms(3.0),
            Watts::new(0.5),
            quantity,
        )
    }

    /// A COTS server fan rated for 500 W of heat: 9.3 kgCO2e embodied,
    /// 4 W draw (Section 4.1).
    #[must_use]
    pub fn server_fan(quantity: u32) -> Self {
        Self::new(
            "server fan",
            GramsCo2e::from_kilograms(9.3),
            Watts::new(4.0),
            quantity,
        )
    }

    /// A small Ethernet switch for wired clusters: ~25 kgCO2e, 10 W.
    #[must_use]
    pub fn ethernet_switch(quantity: u32) -> Self {
        Self::new(
            "ethernet switch",
            GramsCo2e::from_kilograms(25.0),
            Watts::new(10.0),
            quantity,
        )
    }

    /// Description of the peripheral.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Embodied carbon per unit.
    #[must_use]
    pub fn embodied_each(&self) -> GramsCo2e {
        self.embodied_each
    }

    /// Electrical power per unit.
    #[must_use]
    pub fn power_each(&self) -> Watts {
        self.power_each
    }

    /// How many units the cloudlet uses.
    #[must_use]
    pub fn quantity(&self) -> u32 {
        self.quantity
    }

    /// Total embodied carbon of this line item.
    #[must_use]
    pub fn total_embodied(&self) -> GramsCo2e {
        self.embodied_each * f64::from(self.quantity)
    }

    /// Total electrical power of this line item.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        self.power_each * f64::from(self.quantity)
    }
}

impl fmt::Display for Peripheral {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x{} ({:.1} kgCO2e, {:.1} W total)",
            self.label,
            self.quantity,
            self.total_embodied().kilograms(),
            self.total_power().value()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_plug_totals() {
        let plugs = Peripheral::smart_plug(54);
        assert!((plugs.total_embodied().kilograms() - 162.0).abs() < 1e-9);
        assert!((plugs.total_power().value() - 27.0).abs() < 1e-9);
        assert_eq!(plugs.quantity(), 54);
    }

    #[test]
    fn server_fan_matches_paper_numbers() {
        let fan = Peripheral::server_fan(2);
        assert!((fan.total_embodied().kilograms() - 18.6).abs() < 1e-9);
        assert!((fan.total_power().value() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn zero_quantity_is_free() {
        let none = Peripheral::ethernet_switch(0);
        assert_eq!(none.total_embodied(), GramsCo2e::ZERO);
        assert_eq!(none.total_power(), Watts::ZERO);
    }

    #[test]
    fn display_mentions_quantity() {
        assert!(Peripheral::smart_plug(3).to_string().contains("x3"));
    }
}
