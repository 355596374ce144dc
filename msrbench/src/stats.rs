//! Order statistics and digests shared by every workload.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample;
/// `0.0` for an empty one.
pub fn percentile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of an unsorted sample (nearest rank).
pub fn median(sample: &[f64]) -> f64 {
    percentile(sample, 0.5)
}

/// `num / den`, or `0.0` when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a: a stable digest for frontiers, reports and responses.
/// Unlike `std`'s hasher it is fixed across Rust releases, so digests
/// pinned in `pinned.json` stay valid.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds one integer (little-endian).
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one string.
pub fn digest_str(s: &str) -> u64 {
    Digest::default().bytes(s.as_bytes()).finish()
}

/// Mixes seed components into one generator seed, so every net, chip
/// and trace of a workload draws from its own reproducible stream.
pub fn mix(parts: &[u64]) -> u64 {
    let mut d = Digest::default();
    for &p in parts {
        d.u64(p);
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.9), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        // Reference value of FNV-1a 64 for "a".
        assert_eq!(digest_str("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
