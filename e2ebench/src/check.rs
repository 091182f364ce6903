//! Output checks and the answer digest.

/// FNV-1a, 64-bit: a digest of every answer a workload gave, so two
/// commits can be compared for identical outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string in, terminated so adjacent strings cannot run together.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float in by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a seed set in, length first.
    pub fn seeds(&mut self, seeds: &[u32]) {
        self.u64(seeds.len() as u64);
        for &s in seeds {
            self.bytes(&s.to_le_bytes());
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Checks that a seed set holds distinct nodes of a graph with `n` nodes
/// and has at most `k` members.
pub fn seed_set(seeds: &[u32], n: usize, k: usize) -> Result<(), String> {
    if seeds.len() > k {
        return Err(format!("{} seeds for budget {k}", seeds.len()));
    }
    let mut sorted = seeds.to_vec();
    sorted.sort_unstable();
    if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("seed {} repeats", w[0]));
    }
    match sorted.last() {
        Some(&max) if max as usize >= n => Err(format!("seed {max} out of range 0..{n}")),
        _ => Ok(()),
    }
}

/// Checks that a quality figure is a share in `[0, 1]`.
pub fn unit_share(q: f64) -> Result<(), String> {
    if q.is_finite() && (0.0..=1.0).contains(&q) {
        Ok(())
    } else {
        Err(format!("quality {q} outside [0, 1]"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_values() {
        let d = Digest::default();
        assert_eq!(d.value(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::default();
        d.bytes(b"foobar");
        assert_eq!(d.value(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn seed_set_rules() {
        assert!(seed_set(&[0, 3, 2], 4, 3).is_ok());
        assert!(seed_set(&[], 4, 3).is_ok());
        assert!(seed_set(&[0, 1, 2, 3], 4, 3).is_err());
        assert!(seed_set(&[1, 1], 4, 3).is_err());
        assert!(seed_set(&[4], 4, 3).is_err());
    }

    #[test]
    fn quality_is_a_share() {
        assert!(unit_share(0.5).is_ok());
        assert!(unit_share(1.5).is_err());
        assert!(unit_share(f64::NAN).is_err());
    }
}
