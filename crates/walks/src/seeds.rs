/// Derives a decorrelated child seed from a master seed and an index
/// via SplitMix64 (Steele, Lea & Flood's generator finalizer).
///
/// The experiment harness gives every replicate of every sweep point a
/// distinct, reproducible RNG seed:
/// `derive_seed(master, point_index · R + replicate)`; the protocol
/// twin's node runtime uses the same function to give every node its
/// own message-level RNG stream.
///
/// # Examples
///
/// ```
/// use sparsegossip_walks::derive_seed;
///
/// let a = derive_seed(42, 0);
/// let b = derive_seed(42, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, 0)); // deterministic
/// ```
#[must_use]
pub fn derive_seed(master: u64, index: u64) -> u64 {
    // SplitMix64 applied to master ⊕ golden-ratio-scaled index.
    let mut z = master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An iterator of decorrelated seeds derived from a master seed.
///
/// # Examples
///
/// ```
/// use sparsegossip_walks::SeedSequence;
///
/// let seeds: Vec<u64> = SeedSequence::new(7).take(3).collect();
/// assert_eq!(seeds.len(), 3);
/// assert_ne!(seeds[0], seeds[1]);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SeedSequence {
    master: u64,
    next_index: u64,
}

impl SeedSequence {
    /// Creates a sequence rooted at `master`.
    #[must_use]
    pub fn new(master: u64) -> Self {
        Self {
            master,
            next_index: 0,
        }
    }
}

impl Iterator for SeedSequence {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let s = derive_seed(self.master, self.next_index);
        self.next_index += 1;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let many: BTreeSet<u64> = (0..10_000).map(|i| derive_seed(123, i)).collect();
        assert_eq!(many.len(), 10_000, "collision in the first 10k seeds");
    }

    #[test]
    fn different_masters_decorrelate() {
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn sequence_matches_derive() {
        let from_seq: Vec<u64> = SeedSequence::new(9).take(5).collect();
        let direct: Vec<u64> = (0..5).map(|i| derive_seed(9, i)).collect();
        assert_eq!(from_seq, direct);
    }

    #[test]
    fn zero_master_is_usable() {
        assert_ne!(derive_seed(0, 0), 0, "seed 0 must not map to 0");
    }
}
