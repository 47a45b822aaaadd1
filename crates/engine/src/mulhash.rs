//! The shard's hasher for small, trusted keys: `(socket, query id)`
//! correlation and the ingress → target table.
//!
//! std's default SipHash is built to resist keys an attacker chooses.
//! Neither table needs that. Query ids are the shard's own random
//! per-socket draws (a reply's id is only looked up, never inserted),
//! and ingresses come from the caller's target map.
//! So each word is folded in with one add and one multiply, and
//! `finish` spends one widening multiply folding the product's halves
//! together: the map picks buckets with the low bits, which an add and
//! multiply alone leave poorly mixed for keys that differ only high up
//! (an ingress's last octet).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`MulHasher`].
pub(crate) type MulMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// Multiplicative word-at-a-time hasher; see the module docs.
#[derive(Default, Clone, Copy)]
pub(crate) struct MulHasher(u64);

const K: u64 = 0xf135_7aea_2e62_a9c5;
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let wide = u128::from(self.0) * u128::from(FOLD);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};
    use std::net::Ipv4Addr;

    fn hash<T: Hash>(key: &T) -> u64 {
        BuildHasherDefault::<MulHasher>::default().hash_one(key)
    }

    /// Keys that differ only in their high bytes (an ingress's last
    /// octet, a socket index beside a fixed id) must still spread over
    /// the low bits the map picks buckets with — 256 keys into 256
    /// buckets, where a random hash fills about 162.
    #[test]
    fn low_bits_spread_for_the_shard_keys() {
        let buckets = |hashes: Vec<u64>| {
            let mut seen: Vec<u64> = hashes.into_iter().map(|h| h & 0xff).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        let ingresses = (0..=255u8)
            .map(|d| hash(&Ipv4Addr::new(192, 0, 2, d)))
            .collect();
        assert!(buckets(ingresses) > 128);
        let ids = (0..256u16).map(|id| hash(&(3usize, id << 8))).collect();
        assert!(buckets(ids) > 128);
        let sockets = (0..256usize).map(|s| hash(&(s, 77u16))).collect();
        assert!(buckets(sockets) > 128);
    }
}
