//! A fixed-capacity bitset tuned for coverage computations.
//!
//! The MCP solvers repeatedly union neighbor sets into a "covered" set and
//! count fresh elements; this bitset provides exactly those operations
//! without per-call allocation.

/// Fixed-capacity bitset over `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty bitset with capacity for `len` bits.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Sets bit `i`, returning `true` if it was previously unset.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Clears bit `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Tests bit `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Read-only view of the backing `u64` words (bit `i` lives in word
    /// `i / 64` at position `i % 64`). Lets callers run word-level kernels
    /// (popcount deltas, masked unions) without going through per-bit calls.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let tz = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut b = BitSet::new(130);
        assert!(b.insert(0));
        assert!(b.insert(129));
        assert!(!b.insert(0), "double insert reports not fresh");
        assert!(b.contains(0));
        assert!(b.contains(129));
        assert!(!b.contains(64));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn remove_clears_bit() {
        let mut b = BitSet::new(10);
        b.insert(3);
        b.remove(3);
        assert!(!b.contains(3));
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let mut b = BitSet::new(300);
        for i in [5usize, 64, 65, 255, 299] {
            b.insert(i);
        }
        let got: Vec<usize> = b.iter().collect();
        assert_eq!(got, vec![5, 64, 65, 255, 299]);
    }

    #[test]
    fn zero_capacity() {
        let b = BitSet::new(0);
        assert_eq!(b.count(), 0);
        assert_eq!(b.iter().count(), 0);
    }
}
