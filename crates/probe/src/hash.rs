//! The workspace's two stateless hashes, in one place.
//!
//! [`fnv1a64`] is the content hash behind the serve cache keys, the
//! fault registry's per-point stream seeds, and ring member placement;
//! [`splitmix64`] is the full-avalanche mixer behind ring points, trace
//! sampling, and trace ids. Both sit on hot paths whose outputs are
//! persisted or compared across processes (cache keys, ring placement,
//! replayable fault schedules), so their bit patterns are frozen by the
//! reference vectors in the tests below.

/// 64-bit FNV-1a. Collisions are tolerated by every caller (the cache
/// also stores the canonical string), so a small, dependency-free hash
/// is enough.
#[inline]
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64 finalizer: a fast, full-avalanche 64-bit mixer. Hashing
/// `seed ^ key` makes a decision a pure function of the two,
/// independent of thread interleaving or call order; one round also
/// disperses FNV-1a keys (whose low bits correlate for short strings)
/// uniformly around the ring.
#[inline]
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_match_their_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        // First output of the reference SplitMix64 generator seeded 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
