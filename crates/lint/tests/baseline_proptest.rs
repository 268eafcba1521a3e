//! Property test on the ratchet baseline reader: every ratchet map the
//! gate can write comes back unchanged from `Baseline::parse`, and
//! re-rendering it reproduces the committed text byte for byte. The
//! vendored proptest only supplies numeric strategies, so rule names are
//! built from sampled integers.

use junkyard_lint::baseline::Baseline;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Zero to four rules (names may repeat, so the map can end up
    /// smaller), with counts across the whole `u64` range.
    #[test]
    fn random_ratchet_maps_survive_render_then_parse(
        rules in 0usize..5,
        name_a in 0u32..64,
        name_b in 0u32..64,
        name_c in 0u32..64,
        name_d in 0u32..64,
        count_a in 0u64..u64::MAX,
        count_b in 0u64..u64::MAX,
        count_c in 0u64..u64::MAX,
        count_d in 0u64..u64::MAX,
    ) {
        let drawn = [(name_a, count_a), (name_b, count_b), (name_c, count_c), (name_d, count_d)];
        let mut baseline = Baseline::default();
        for &(name, count) in &drawn[..rules] {
            baseline.ratchets.insert(format!("rule-{name}"), count);
        }
        let text = baseline.render();
        let parsed = Baseline::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!(&parsed, &baseline);
        prop_assert_eq!(parsed.render(), text);
    }
}
