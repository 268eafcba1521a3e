//! Order statistics over timing samples and the output digest.

/// The median of `values` (mean of the two middle values for an even
/// count), or `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// A single value is its own quartiles; `None` when empty.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let m = sorted.len();
    match m {
        0 => None,
        1 => Some((sorted[0], sorted[0])),
        _ => {
            let cut = |i: usize| {
                // Position i·(m+1)/4 split into its whole part `j` (clamped
                // to 1..m-1) and the remainder `delta` in quarters. As in
                // Python, `delta` may fall outside 0..4 after the clamp, which
                // extrapolates on samples too small to bracket the cut.
                let j = (i * (m + 1) / 4).clamp(1, m - 1);
                let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A 64-bit FNV-1a digest over a sequence of 64-bit words. Floats go in
/// by bit pattern, so any change in any output bit changes the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    #[must_use]
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Mixes one word in, byte by byte (little-endian).
    pub fn word(&mut self, word: u64) -> &mut Self {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Mixes a float in by its bit pattern.
    pub fn float(&mut self, value: f64) -> &mut Self {
        self.word(value.to_bits())
    }

    /// Mixes a count in.
    pub fn count(&mut self, value: usize) -> &mut Self {
        self.word(value as u64)
    }

    /// Mixes an optional count in, `None` distinct from every `Some`.
    pub fn option(&mut self, value: Option<usize>) -> &mut Self {
        match value {
            Some(v) => self.word(1).count(v),
            None => self.word(0),
        }
    }

    /// The digest as 16 lower-case hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let mut a = Digest::new();
        a.word(1).word(2);
        let mut b = Digest::new();
        b.word(2).word(1);
        assert_ne!(a, b);

        let mut zero = Digest::new();
        zero.float(0.0);
        let mut negative_zero = Digest::new();
        negative_zero.float(-0.0);
        assert_ne!(zero, negative_zero);

        let mut none = Digest::new();
        none.option(None);
        let mut some = Digest::new();
        some.option(Some(0));
        assert_ne!(none, some);
    }

    #[test]
    fn digest_matches_fnv1a_reference() {
        // FNV-1a 64 of the eight bytes 00..00 (one zero word).
        let mut d = Digest::new();
        d.word(0);
        let mut expected = Digest::OFFSET;
        for _ in 0..8 {
            expected = expected.wrapping_mul(Digest::PRIME);
        }
        assert_eq!(d.hex(), format!("{expected:016x}"));
        assert_eq!(Digest::new().hex(), "cbf29ce484222325");
    }
}
