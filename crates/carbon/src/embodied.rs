//! Manufacturing ("embodied") carbon accounting — the `C_M` term of CCI.
//!
//! Embodied carbon is a one-time cost paid when a device is manufactured
//! (Section 3.4). The paper's key accounting rule is that a *reused* device
//! has already paid this cost, so its `C_M` is zero — but anything newly
//! added to support the reuse (replacement batteries, server fans, smart
//! plugs) must still be counted (Sections 4.3 and 5.2, Eq. 10 and Eq. 12).

use std::fmt;

use crate::units::{GramsCo2e, TimeSpan};

/// One line item contributing manufacturing carbon to a system.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbodiedItem {
    label: String,
    per_unit: GramsCo2e,
    quantity: f64,
}

impl EmbodiedItem {
    /// Creates a line item of `quantity` units, each embodying `per_unit`.
    #[must_use]
    pub fn new(label: impl Into<String>, per_unit: GramsCo2e, quantity: f64) -> Self {
        Self {
            label: label.into(),
            per_unit,
            quantity,
        }
    }

    /// Human-readable description of the item.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of units.
    #[must_use]
    pub fn quantity(&self) -> f64 {
        self.quantity
    }

    /// Total embodied carbon of the line item.
    #[must_use]
    pub fn total(&self) -> GramsCo2e {
        self.per_unit * self.quantity
    }
}

impl fmt::Display for EmbodiedItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x{:.1}: {:.1} kgCO2e",
            self.label,
            self.quantity,
            self.total().kilograms()
        )
    }
}

/// An itemised manufacturing-carbon bill (`C_M`).
///
/// # Examples
///
/// ```
/// use junkyard_carbon::embodied::EmbodiedCarbon;
/// use junkyard_carbon::units::GramsCo2e;
///
/// // A reused phone cloudlet: phones are free, but fans and smart plugs are new.
/// let cm = EmbodiedCarbon::reused()
///     .with_item("server fan", GramsCo2e::from_kilograms(9.3), 1.0)
///     .with_item("smart plug", GramsCo2e::from_kilograms(3.0), 54.0);
/// assert!((cm.total().kilograms() - (9.3 + 3.0 * 54.0)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EmbodiedCarbon {
    items: Vec<EmbodiedItem>,
}

impl EmbodiedCarbon {
    /// An empty bill (no embodied carbon at all).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bill for a reused device: manufacturing is treated as already
    /// paid, so the bill starts empty (the paper's `C_M = 0` stipulation).
    #[must_use]
    pub fn reused() -> Self {
        Self::new()
    }

    /// The bill for a newly manufactured device with a single aggregate
    /// embodied-carbon figure (for example from a vendor LCA).
    #[must_use]
    pub fn manufactured(label: impl Into<String>, carbon: GramsCo2e) -> Self {
        Self::new().with_item(label, carbon, 1.0)
    }

    /// Adds a line item (builder style).
    #[must_use]
    pub fn with_item(
        mut self,
        label: impl Into<String>,
        per_unit: GramsCo2e,
        quantity: f64,
    ) -> Self {
        self.push_item(label, per_unit, quantity);
        self
    }

    /// Adds a line item in place.
    pub fn push_item(&mut self, label: impl Into<String>, per_unit: GramsCo2e, quantity: f64) {
        self.items
            .push(EmbodiedItem::new(label, per_unit, quantity));
    }

    /// Merges another bill into this one (builder style).
    #[must_use]
    pub fn with_bill(mut self, other: &EmbodiedCarbon) -> Self {
        self.items.extend(other.items.iter().cloned());
        self
    }

    /// Iterates over the line items.
    pub fn iter(&self) -> impl Iterator<Item = &EmbodiedItem> {
        self.items.iter()
    }

    /// Number of line items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the bill has no line items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total embodied carbon across all line items.
    #[must_use]
    pub fn total(&self) -> GramsCo2e {
        self.items.iter().map(EmbodiedItem::total).sum()
    }
}

impl fmt::Display for EmbodiedCarbon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "C_M = {:.1} kgCO2e ({} items)",
            self.total().kilograms(),
            self.items.len()
        )
    }
}

/// Number of battery packs consumed over `lifetime` when each pack survives
/// `battery_lifetime` of use — the ceiling term of Eq. 10.
///
/// The first pack is the one already in the reused phone, so a lifetime
/// shorter than one battery lifetime still "consumes" one pack; callers that
/// treat the original pack as free should subtract one (see
/// [`battery_replacement_carbon`]).
///
/// # Panics
///
/// Panics if `battery_lifetime` is not strictly positive.
#[must_use]
pub fn battery_packs_needed(lifetime: TimeSpan, battery_lifetime: TimeSpan) -> u32 {
    assert!(
        battery_lifetime.seconds() > 0.0,
        "battery lifetime must be positive"
    );
    if lifetime.seconds() <= 0.0 {
        return 0;
    }
    crate::convert::ceil_count_u32(lifetime.seconds() / battery_lifetime.seconds())
}

/// Embodied carbon of the *replacement* batteries needed to keep a reused
/// device alive for `lifetime` (Eq. 10), assuming the pack already inside the
/// device is free.
///
/// # Panics
///
/// Panics if `battery_lifetime` is not strictly positive.
#[must_use]
pub fn battery_replacement_carbon(
    per_battery: GramsCo2e,
    lifetime: TimeSpan,
    battery_lifetime: TimeSpan,
) -> GramsCo2e {
    let packs = battery_packs_needed(lifetime, battery_lifetime);
    let replacements = packs.saturating_sub(1);
    per_battery * f64::from(replacements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reused_bill_is_zero() {
        assert_eq!(EmbodiedCarbon::reused().total(), GramsCo2e::ZERO);
        assert!(EmbodiedCarbon::reused().is_empty());
    }

    #[test]
    fn manufactured_bill_carries_total() {
        let bill =
            EmbodiedCarbon::manufactured("PowerEdge R740", GramsCo2e::from_kilograms(3330.0));
        assert!((bill.total().kilograms() - 3330.0).abs() < 1e-9);
        assert_eq!(bill.len(), 1);
    }

    #[test]
    fn items_accumulate() {
        let bill = EmbodiedCarbon::new()
            .with_item("fan", GramsCo2e::from_kilograms(9.3), 2.0)
            .with_item("plug", GramsCo2e::from_kilograms(3.0), 270.0);
        assert!((bill.total().kilograms() - (18.6 + 810.0)).abs() < 1e-9);
        assert_eq!(bill.iter().count(), 2);
    }

    #[test]
    fn bills_merge() {
        let a = EmbodiedCarbon::manufactured("a", GramsCo2e::new(10.0));
        let b = EmbodiedCarbon::manufactured("b", GramsCo2e::new(5.0));
        let merged = a.with_bill(&b);
        assert_eq!(merged.total().grams(), 15.0);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn pixel_battery_lifetime_example() {
        // Section 4.3: a Pixel 3A battery lasts about 2.3 years; over a
        // 5-year second life two replacement packs are needed.
        let packs = battery_packs_needed(TimeSpan::from_years(5.0), TimeSpan::from_years(2.3));
        assert_eq!(packs, 3);
        let carbon = battery_replacement_carbon(
            GramsCo2e::from_kilograms(2.0),
            TimeSpan::from_years(5.0),
            TimeSpan::from_years(2.3),
        );
        assert!((carbon.kilograms() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn short_lifetime_needs_no_replacement() {
        let carbon = battery_replacement_carbon(
            GramsCo2e::from_kilograms(2.0),
            TimeSpan::from_years(1.0),
            TimeSpan::from_years(2.3),
        );
        assert_eq!(carbon, GramsCo2e::ZERO);
        assert_eq!(
            battery_packs_needed(TimeSpan::ZERO, TimeSpan::from_years(1.0)),
            0
        );
    }

    #[test]
    #[should_panic(expected = "battery lifetime must be positive")]
    fn zero_battery_lifetime_panics() {
        let _ = battery_packs_needed(TimeSpan::from_years(1.0), TimeSpan::ZERO);
    }

    #[test]
    fn display_is_not_empty() {
        let bill = EmbodiedCarbon::manufactured("x", GramsCo2e::new(1.0));
        assert!(!format!("{bill}").is_empty());
        assert!(!format!("{}", bill.iter().next().unwrap()).is_empty());
    }
}
