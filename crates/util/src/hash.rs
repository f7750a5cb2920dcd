//! Fast, non-cryptographic hashing (FxHash algorithm).
//!
//! The EFD's hot path is hash-map lookups keyed by small fixed-size
//! fingerprints (metric id, node id, interval id, rounded-mean bits). The
//! standard library's SipHash is DoS-resistant but slow for such keys; the
//! multiply-xor "Fx" scheme used inside rustc is a much better fit and is
//! re-implemented here (the `rustc-hash` crate is not part of our vetted
//! dependency set).
//!
//! Not suitable for adversarial inputs — fine for telemetry workloads.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash (64-bit golden
/// ratio variant).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic [`Hasher`] (FxHash).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // unwrap: chunks_exact guarantees 8 bytes.
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) | ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The [`Hasher`] behind [`FxHashMap`] and [`FxHashSet`]: [`FxHasher`]'s
/// word mixing, plus a `finish` that folds the high product bits down.
///
/// `FxHasher::finish` returns the raw multiply, whose low bits depend only
/// on the low bits of what was written. A rounded window mean such as
/// `6000.0` has ≥ 30 trailing zero mantissa bits, so for fingerprint keys
/// the low bits — the ones `HashMap` picks buckets with — see only metric,
/// node and interval, and every mean under one of those lands in the same
/// bucket chain. Folding the high half in (twice, around one multiply)
/// makes both the bucket bits and the top control-tag bits depend on every
/// written bit.
///
/// Only in-memory maps use this; [`FxHasher::finish`] itself is unchanged,
/// because [`hash_bytes`] / [`hash_u64`] feed on-disk checksums, catalog
/// digests and seed tags that must stay byte-identical.
#[derive(Debug, Default, Clone)]
pub struct FxMapHasher(FxHasher);

impl Hasher for FxMapHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.0.write_u8(i);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.0.write_u16(i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.0.write_u32(i);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0.write_u64(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.0.write_u128(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0.write_usize(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = self.0.finish();
        let h = (h ^ (h >> 32)).wrapping_mul(K);
        h ^ (h >> 32)
    }
}

/// `BuildHasher` for in-memory maps ([`FxMapHasher`]).
pub type FxBuildHasher = BuildHasherDefault<FxMapHasher>;

/// `HashMap` keyed with [`FxMapHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxMapHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hash a single `u64` to a well-mixed `u64` (one-shot convenience).
#[inline]
pub fn hash_u64(x: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(x);
    h.finish()
}

/// Hash a byte slice to a `u64` (one-shot convenience).
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn deterministic() {
        assert_eq!(hash_u64(42), hash_u64(42));
        assert_eq!(
            hash_bytes(b"nr_mapped_vmstat"),
            hash_bytes(b"nr_mapped_vmstat")
        );
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_u64(1), hash_u64(2));
        assert_ne!(hash_bytes(b"a"), hash_bytes(b"b"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
    }

    #[test]
    fn remainder_lengths_do_not_collide_with_zero_padding() {
        // b"ab" padded to 8 bytes must hash differently from b"ab\0...\0".
        let a = hash_bytes(b"ab");
        let b = hash_bytes(b"ab\0\0\0\0\0\0");
        assert_ne!(a, b);
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
        assert!(!m.contains_key(&1000));
    }

    #[test]
    fn one_shot_hashes_are_pinned() {
        // EFDB/EFDW checksums, catalog digests and every dataset seed
        // (through `str_tag`) are built on these values: they must never
        // change, whatever the in-memory maps hash with.
        assert_eq!(hash_bytes(b""), 0);
        assert_eq!(hash_bytes(b"nr_mapped_vmstat"), 0xd5f5_811b_12d8_10ee);
        assert_eq!(
            hash_bytes(b"EFDB\x01\x00\x02\x00abcdefghijk"),
            0x0e3f_834e_a3d6_b1ad
        );
        assert_eq!(hash_u64(0), 0);
        assert_eq!(hash_u64(42), 0x5e77_c80c_6b95_bc72);
        assert_eq!(crate::rng::str_tag("ft"), 0x297c_2cb5_045b_bb5e);
        assert_eq!(crate::rng::str_tag("miniAMR"), 0xdcdf_e1d5_48db_9e71);
    }

    /// A fingerprint-shaped key, written field by field in the order the
    /// derived `Hash` of `efd_core::Fingerprint` writes them: metric
    /// (u32), node (u16), interval start and end (u32), rounded-mean bits
    /// (u64).
    type FpKey = (u32, u16, u32, u32, u64);

    fn raw_hash(key: &FpKey) -> u64 {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    fn map_hash(key: &FpKey) -> u64 {
        FxBuildHasher::default().hash_one(key)
    }

    fn distinct(hashes: impl Iterator<Item = u64>, bits_of: impl Fn(u64) -> u64) -> usize {
        hashes
            .map(bits_of)
            .collect::<std::collections::HashSet<_>>()
            .len()
    }

    #[test]
    fn map_hasher_spreads_integer_means_over_bucket_bits() {
        // 4096 integer-valued rounded means under one (metric, node,
        // interval): the low mantissa bits are all zero.
        let keys: Vec<FpKey> = (0..4096u32)
            .map(|i| (3, 1, 60, 120, (6000.0 + f64::from(i) * 100.0).to_bits()))
            .collect();
        let low16 = |h: u64| h & 0xFFFF;
        let tag7 = |h: u64| h >> 57;
        // The raw Fx product puts every one of them in the same bucket.
        assert_eq!(distinct(keys.iter().map(raw_hash), low16), 1);
        // The map hasher spreads them like random hashes would (~3970 of
        // 4096 distinct low halves), and over the top control-tag bits.
        let buckets = distinct(keys.iter().map(map_hash), low16);
        assert!(buckets > 3800, "only {buckets} distinct bucket indices");
        let tags = distinct(keys.iter().map(map_hash), tag7);
        assert!(tags > 120, "only {tags} of 128 control tags");
    }

    #[test]
    fn shard_bits_and_bucket_bits_are_independent() {
        // `efd_serve::shard_of` picks a shard from the top bits of the raw
        // Fx hash; the shard's map then hashes the same key again. Keys
        // that share a shard must still spread over the map's bucket bits
        // and control tags.
        let shard_bits = 3;
        let in_shard_0: Vec<FpKey> = (0..64u16)
            .flat_map(|node| {
                (0..512u32).map(move |i| (0, node, 0, 60, f64::from(i * 10).to_bits()))
            })
            .filter(|k| raw_hash(k) >> (64 - shard_bits) == 0)
            .collect();
        let n = in_shard_0.len();
        assert!(n > 3000, "shard 0 got {n} of 32768 keys");
        let buckets = distinct(in_shard_0.iter().map(map_hash), |h| h & 0xFFFF);
        assert!(
            buckets * 100 > n * 90,
            "{buckets} distinct bucket indices for {n} keys"
        );
        let tags = distinct(in_shard_0.iter().map(map_hash), |h| h >> 57);
        assert!(tags > 120, "only {tags} of 128 control tags");
    }

    #[test]
    fn reasonable_distribution() {
        // Low-entropy sequential keys should still spread across buckets:
        // count distinct top-8-bit patterns over 4096 sequential hashes.
        let mut seen = FxHashSet::default();
        for i in 0..4096u64 {
            seen.insert(hash_u64(i) >> 56);
        }
        assert!(seen.len() > 200, "only {} distinct high bytes", seen.len());
    }
}
