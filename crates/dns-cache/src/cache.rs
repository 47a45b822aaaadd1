//! The TTL-driven DNS cache.
//!
//! This models the hidden caches the paper enumerates. The behaviours the
//! CDE techniques rely on are implemented faithfully:
//!
//! * a record asked twice within its TTL produces exactly one upstream
//!   query (§II-C item 1),
//! * platforms may clamp TTLs into a `[min, max]` window (§II-C footnote),
//! * negative results (NXDOMAIN/NODATA) are cached per RFC 2308,
//! * when full, a victim is chosen by a pluggable [`EvictionPolicy`].

use crate::policy::EvictionPolicy;
use crate::stats::CacheStats;
use cde_dns::{Name, Record, RecordType, Ttl};
use cde_netsim::{DetRng, SimDuration, SimTime};
use rand::Rng;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Key identifying one cached RRset: owner name plus record type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// Owner name.
    pub name: Name,
    /// Record type.
    pub rtype: RecordType,
}

impl CacheKey {
    /// Creates a key.
    pub fn new(name: Name, rtype: RecordType) -> CacheKey {
        CacheKey { name, rtype }
    }
}

/// A key seen as its parts, owned ([`CacheKey`]) or borrowed
/// (`(&Name, RecordType)`): the map stores owned keys and finds them by
/// a borrowed view, so a lookup clones no name.
trait KeyView {
    fn parts(&self) -> (&Name, RecordType);
}

impl KeyView for CacheKey {
    fn parts(&self) -> (&Name, RecordType) {
        (&self.name, self.rtype)
    }
}

impl KeyView for (&Name, RecordType) {
    fn parts(&self) -> (&Name, RecordType) {
        (self.0, self.1)
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for CacheKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

// `Borrow` requires an owned key and its view to hash alike: both hash
// their parts.
impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyView + '_ {}

/// Which kind of negative answer was cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NegativeKind {
    /// The name does not exist at all.
    NxDomain,
    /// The name exists but lacks the queried type.
    NoData,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLookup {
    /// Fresh positive entry; records carry decayed TTLs.
    Hit(Vec<Record>),
    /// Fresh negative entry.
    NegativeHit(NegativeKind),
    /// Nothing usable; the resolver must ask upstream.
    Miss,
}

impl CacheLookup {
    /// `true` for either kind of hit.
    pub fn is_hit(&self) -> bool {
        !matches!(self, CacheLookup::Miss)
    }
}

#[derive(Debug, Clone)]
enum EntryData {
    Positive(Vec<Record>),
    Negative(NegativeKind),
}

#[derive(Debug, Clone)]
struct Entry {
    data: EntryData,
    stored_at: SimTime,
    expires_at: SimTime,
    inserted_seq: u64,
    last_used_seq: u64,
}

/// Configuration of one cache instance.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum number of RRset entries held.
    pub capacity: usize,
    /// Lower clamp applied to incoming TTLs; `Ttl::ZERO` disables it.
    pub min_ttl: Ttl,
    /// Upper clamp applied to incoming TTLs.
    pub max_ttl: Ttl,
    /// Whether negative answers are cached.
    pub negative_caching: bool,
    /// Separate upper clamp for negative-answer TTLs (resolver software
    /// caps negative caching much lower than positive: BIND's
    /// `max-ncache-ttl`, Windows DNS's `MaxNegativeCacheTtl`).
    pub negative_max_ttl: Ttl,
    /// Eviction policy once `capacity` is reached.
    pub policy: EvictionPolicy,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            capacity: 100_000,
            min_ttl: Ttl::ZERO,
            max_ttl: Ttl::from_secs(86_400),
            negative_caching: true,
            negative_max_ttl: Ttl::from_secs(10_800),
            policy: EvictionPolicy::Lru,
        }
    }
}

/// A single DNS cache.
///
/// # Examples
///
/// ```
/// use cde_cache::{CacheLookup, DnsCache};
/// use cde_dns::{Name, RData, Record, RecordType, Ttl};
/// use cde_netsim::SimTime;
/// use std::net::Ipv4Addr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cache = DnsCache::with_defaults(1);
/// let name: Name = "name.cache.example".parse()?;
/// let now = SimTime::ZERO;
/// assert_eq!(cache.lookup(&name, RecordType::A, now), CacheLookup::Miss);
/// cache.insert(
///     name.clone(),
///     RecordType::A,
///     vec![Record::new(name.clone(), Ttl::from_secs(60), RData::A(Ipv4Addr::new(1, 2, 3, 4)))],
///     now,
/// );
/// assert!(cache.lookup(&name, RecordType::A, now).is_hit());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DnsCache {
    id: u64,
    config: CacheConfig,
    map: HashMap<CacheKey, Entry>,
    seq: u64,
    stats: CacheStats,
    rng: DetRng,
}

impl DnsCache {
    /// Creates a cache with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics when `config.capacity` is zero.
    pub fn new(id: u64, config: CacheConfig) -> DnsCache {
        assert!(config.capacity > 0, "cache capacity must be positive");
        DnsCache {
            id,
            rng: DetRng::seed(id ^ 0xCAC4E).fork("evict"),
            config,
            map: HashMap::new(),
            seq: 0,
            stats: CacheStats::default(),
        }
    }

    /// Creates a cache with default configuration.
    pub fn with_defaults(id: u64) -> DnsCache {
        DnsCache::new(id, CacheConfig::default())
    }

    /// Identifier assigned at construction (platforms use it to label
    /// ground truth; the measurement side never reads it).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of live entries (including expired-but-not-yet-purged ones).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `name`/`rtype` at virtual time `now`.
    ///
    /// A fresh positive entry returns records whose TTLs are decayed by the
    /// time elapsed since insertion, exactly as a resolver reports them.
    pub fn lookup(&mut self, name: &Name, rtype: RecordType, now: SimTime) -> CacheLookup {
        let key: &dyn KeyView = &(name, rtype);
        self.seq += 1;
        let seq = self.seq;
        match self.map.get_mut(key) {
            Some(entry) if entry.expires_at > now => {
                entry.last_used_seq = seq;
                match &entry.data {
                    EntryData::Positive(records) => {
                        self.stats.hits += 1;
                        let elapsed = now.since(entry.stored_at).as_micros() / 1_000_000;
                        let records = records
                            .iter()
                            .map(|r| r.with_ttl(r.ttl().saturating_sub(elapsed as u32)))
                            .collect();
                        CacheLookup::Hit(records)
                    }
                    EntryData::Negative(kind) => {
                        self.stats.hits += 1;
                        self.stats.negative_hits += 1;
                        CacheLookup::NegativeHit(*kind)
                    }
                }
            }
            Some(_) => {
                self.map.remove(key);
                self.stats.expirations += 1;
                CacheLookup::Miss
            }
            None => {
                self.stats.misses += 1;
                CacheLookup::Miss
            }
        }
    }

    /// Non-mutating freshness probe (no statistics, no LRU update).
    pub fn contains_fresh(&self, name: &Name, rtype: RecordType, now: SimTime) -> bool {
        self.map
            .get(&(name, rtype) as &dyn KeyView)
            .is_some_and(|entry| entry.expires_at > now)
    }

    /// Non-mutating read of a fresh positive entry (no statistics, no LRU
    /// update); TTLs are decayed like in [`DnsCache::lookup`]. Resolvers use
    /// this to consult cached delegation (NS/glue) data while planning the
    /// next upstream hop.
    pub fn peek(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<Vec<Record>> {
        let entry = self.map.get(&(name, rtype) as &dyn KeyView)?;
        if entry.expires_at <= now {
            return None;
        }
        match &entry.data {
            EntryData::Positive(records) => {
                let elapsed = now.since(entry.stored_at).as_micros() / 1_000_000;
                Some(
                    records
                        .iter()
                        .map(|r| r.with_ttl(r.ttl().saturating_sub(elapsed as u32)))
                        .collect(),
                )
            }
            EntryData::Negative(_) => None,
        }
    }

    /// Inserts a positive RRset for `name`/`rtype`.
    ///
    /// The entry TTL is the minimum record TTL, clamped into the configured
    /// `[min_ttl, max_ttl]` window. Records with zero post-clamp TTL are
    /// not cached.
    pub fn insert(&mut self, name: Name, rtype: RecordType, records: Vec<Record>, now: SimTime) {
        if records.is_empty() {
            return;
        }
        let raw_ttl = records.iter().map(Record::ttl).min().unwrap_or(Ttl::ZERO);
        let ttl = raw_ttl.clamp(self.config.min_ttl, self.config.max_ttl);
        if ttl == Ttl::ZERO {
            return;
        }
        self.store(
            CacheKey::new(name, rtype),
            EntryData::Positive(records),
            ttl,
            now,
        );
    }

    /// Inserts a negative entry when negative caching is enabled.
    pub fn insert_negative(
        &mut self,
        name: Name,
        rtype: RecordType,
        kind: NegativeKind,
        negative_ttl: Ttl,
        now: SimTime,
    ) {
        if !self.config.negative_caching {
            return;
        }
        let cap = self.config.max_ttl.min(self.config.negative_max_ttl);
        let ttl = negative_ttl.clamp(self.config.min_ttl, cap);
        if ttl == Ttl::ZERO {
            return;
        }
        self.store(
            CacheKey::new(name, rtype),
            EntryData::Negative(kind),
            ttl,
            now,
        );
    }

    fn store(&mut self, key: CacheKey, data: EntryData, ttl: Ttl, now: SimTime) {
        if !self.map.contains_key(&key) && self.map.len() >= self.config.capacity {
            self.evict(now);
        }
        self.seq += 1;
        let entry = Entry {
            data,
            stored_at: now,
            expires_at: now + SimDuration::from_secs(ttl.as_secs() as u64),
            inserted_seq: self.seq,
            last_used_seq: self.seq,
        };
        self.map.insert(key, entry);
        self.stats.insertions += 1;
    }

    fn evict(&mut self, now: SimTime) {
        // Prefer purging an expired entry before sacrificing a live one.
        if let Some(key) = self
            .map
            .iter()
            .filter(|(_, e)| e.expires_at <= now)
            .min_by_key(|(_, e)| e.inserted_seq)
            .map(|(k, _)| k.clone())
        {
            self.map.remove(&key);
            self.stats.evictions += 1;
            return;
        }
        let victim = match self.config.policy {
            EvictionPolicy::Lru => self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used_seq)
                .map(|(k, _)| k.clone()),
            EvictionPolicy::Fifo => self
                .map
                .iter()
                .min_by_key(|(_, e)| e.inserted_seq)
                .map(|(k, _)| k.clone()),
            EvictionPolicy::EarliestExpiry => self
                .map
                .iter()
                .min_by_key(|(_, e)| (e.expires_at, e.inserted_seq))
                .map(|(k, _)| k.clone()),
            EvictionPolicy::Random => {
                // Select by insertion sequence, not HashMap iteration order,
                // to keep the choice deterministic across runs.
                let mut seqs: Vec<u64> = self.map.values().map(|e| e.inserted_seq).collect();
                seqs.sort_unstable();
                let chosen = seqs[self.rng.gen_range(0..seqs.len())];
                self.map
                    .iter()
                    .find(|(_, e)| e.inserted_seq == chosen)
                    .map(|(k, _)| k.clone())
            }
        };
        if let Some(key) = victim {
            self.map.remove(&key);
            self.stats.evictions += 1;
        }
    }

    /// Drops every entry (models a cache restart; the paper's resilience
    /// use case §II-B detects exactly this).
    pub fn flush(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cde_dns::RData;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn a_rec(name: &str, ttl: u32) -> Record {
        Record::new(
            n(name),
            Ttl::from_secs(ttl),
            RData::A(Ipv4Addr::new(192, 0, 2, 7)),
        )
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = DnsCache::with_defaults(1);
        assert_eq!(c.lookup(&n("a.b"), RecordType::A, t(0)), CacheLookup::Miss);
        c.insert(n("a.b"), RecordType::A, vec![a_rec("a.b", 60)], t(0));
        assert!(c.lookup(&n("a.b"), RecordType::A, t(0)).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn entry_expires_after_ttl() {
        let mut c = DnsCache::with_defaults(1);
        c.insert(n("a.b"), RecordType::A, vec![a_rec("a.b", 60)], t(0));
        assert!(c.lookup(&n("a.b"), RecordType::A, t(59)).is_hit());
        assert_eq!(c.lookup(&n("a.b"), RecordType::A, t(60)), CacheLookup::Miss);
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn returned_ttl_decays() {
        let mut c = DnsCache::with_defaults(1);
        c.insert(n("a.b"), RecordType::A, vec![a_rec("a.b", 60)], t(0));
        match c.lookup(&n("a.b"), RecordType::A, t(25)) {
            CacheLookup::Hit(rrs) => assert_eq!(rrs[0].ttl(), Ttl::from_secs(35)),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn min_ttl_clamp_raises_short_ttls() {
        let mut c = DnsCache::new(
            1,
            CacheConfig {
                min_ttl: Ttl::from_secs(30),
                ..CacheConfig::default()
            },
        );
        c.insert(n("a.b"), RecordType::A, vec![a_rec("a.b", 5)], t(0));
        // Still fresh at t=20 because the clamp lifted the TTL to 30.
        assert!(c.lookup(&n("a.b"), RecordType::A, t(20)).is_hit());
        assert_eq!(c.lookup(&n("a.b"), RecordType::A, t(30)), CacheLookup::Miss);
    }

    #[test]
    fn max_ttl_clamp_lowers_long_ttls() {
        let mut c = DnsCache::new(
            1,
            CacheConfig {
                max_ttl: Ttl::from_secs(100),
                ..CacheConfig::default()
            },
        );
        c.insert(n("a.b"), RecordType::A, vec![a_rec("a.b", 86400)], t(0));
        assert!(c.lookup(&n("a.b"), RecordType::A, t(99)).is_hit());
        assert_eq!(
            c.lookup(&n("a.b"), RecordType::A, t(100)),
            CacheLookup::Miss
        );
    }

    #[test]
    fn zero_ttl_records_are_not_cached() {
        let mut c = DnsCache::with_defaults(1);
        c.insert(n("a.b"), RecordType::A, vec![a_rec("a.b", 0)], t(0));
        assert_eq!(c.len(), 0);
        assert_eq!(c.lookup(&n("a.b"), RecordType::A, t(0)), CacheLookup::Miss);
    }

    #[test]
    fn negative_caching_roundtrip() {
        let mut c = DnsCache::with_defaults(1);
        c.insert_negative(
            n("missing.b"),
            RecordType::A,
            NegativeKind::NxDomain,
            Ttl::from_secs(300),
            t(0),
        );
        assert_eq!(
            c.lookup(&n("missing.b"), RecordType::A, t(10)),
            CacheLookup::NegativeHit(NegativeKind::NxDomain)
        );
        assert_eq!(c.stats().negative_hits, 1);
    }

    #[test]
    fn negative_caching_can_be_disabled() {
        let mut c = DnsCache::new(
            1,
            CacheConfig {
                negative_caching: false,
                ..CacheConfig::default()
            },
        );
        c.insert_negative(
            n("missing.b"),
            RecordType::A,
            NegativeKind::NoData,
            Ttl::from_secs(300),
            t(0),
        );
        assert_eq!(
            c.lookup(&n("missing.b"), RecordType::A, t(0)),
            CacheLookup::Miss
        );
    }

    #[test]
    fn types_are_cached_independently() {
        let mut c = DnsCache::with_defaults(1);
        c.insert(n("a.b"), RecordType::A, vec![a_rec("a.b", 60)], t(0));
        assert_eq!(c.lookup(&n("a.b"), RecordType::Mx, t(0)), CacheLookup::Miss);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = DnsCache::new(
            1,
            CacheConfig {
                capacity: 2,
                policy: EvictionPolicy::Lru,
                ..CacheConfig::default()
            },
        );
        c.insert(n("one.b"), RecordType::A, vec![a_rec("one.b", 600)], t(0));
        c.insert(n("two.b"), RecordType::A, vec![a_rec("two.b", 600)], t(1));
        // Touch `one` so `two` becomes LRU.
        assert!(c.lookup(&n("one.b"), RecordType::A, t(2)).is_hit());
        c.insert(
            n("three.b"),
            RecordType::A,
            vec![a_rec("three.b", 600)],
            t(3),
        );
        assert!(c.contains_fresh(&n("one.b"), RecordType::A, t(3)));
        assert!(!c.contains_fresh(&n("two.b"), RecordType::A, t(3)));
        assert!(c.contains_fresh(&n("three.b"), RecordType::A, t(3)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn fifo_evicts_oldest_insertion() {
        let mut c = DnsCache::new(
            1,
            CacheConfig {
                capacity: 2,
                policy: EvictionPolicy::Fifo,
                ..CacheConfig::default()
            },
        );
        c.insert(n("one.b"), RecordType::A, vec![a_rec("one.b", 600)], t(0));
        c.insert(n("two.b"), RecordType::A, vec![a_rec("two.b", 600)], t(1));
        assert!(c.lookup(&n("one.b"), RecordType::A, t(2)).is_hit());
        c.insert(
            n("three.b"),
            RecordType::A,
            vec![a_rec("three.b", 600)],
            t(3),
        );
        // FIFO ignores the touch: `one` goes despite being recently used.
        assert!(!c.contains_fresh(&n("one.b"), RecordType::A, t(3)));
        assert!(c.contains_fresh(&n("two.b"), RecordType::A, t(3)));
    }

    #[test]
    fn earliest_expiry_evicts_soonest_to_expire() {
        let mut c = DnsCache::new(
            1,
            CacheConfig {
                capacity: 2,
                policy: EvictionPolicy::EarliestExpiry,
                ..CacheConfig::default()
            },
        );
        c.insert(
            n("short.b"),
            RecordType::A,
            vec![a_rec("short.b", 10)],
            t(0),
        );
        c.insert(n("long.b"), RecordType::A, vec![a_rec("long.b", 600)], t(0));
        c.insert(n("new.b"), RecordType::A, vec![a_rec("new.b", 60)], t(1));
        assert!(!c.contains_fresh(&n("short.b"), RecordType::A, t(1)));
        assert!(c.contains_fresh(&n("long.b"), RecordType::A, t(1)));
    }

    #[test]
    fn expired_entries_are_purged_before_live_victims() {
        let mut c = DnsCache::new(
            1,
            CacheConfig {
                capacity: 2,
                policy: EvictionPolicy::Lru,
                ..CacheConfig::default()
            },
        );
        c.insert(n("dead.b"), RecordType::A, vec![a_rec("dead.b", 5)], t(0));
        c.insert(n("live.b"), RecordType::A, vec![a_rec("live.b", 600)], t(0));
        // At t=10 `dead` is expired; inserting must purge it, not `live`.
        c.insert(n("new.b"), RecordType::A, vec![a_rec("new.b", 600)], t(10));
        assert!(c.contains_fresh(&n("live.b"), RecordType::A, t(10)));
        assert!(c.contains_fresh(&n("new.b"), RecordType::A, t(10)));
    }

    #[test]
    fn random_eviction_is_deterministic_per_seed() {
        let run = || {
            let mut c = DnsCache::new(
                42,
                CacheConfig {
                    capacity: 4,
                    policy: EvictionPolicy::Random,
                    ..CacheConfig::default()
                },
            );
            for i in 0..32 {
                c.insert(
                    n(&format!("k{i}.b")),
                    RecordType::A,
                    vec![a_rec(&format!("k{i}.b"), 600)],
                    t(i),
                );
            }
            let mut alive: Vec<String> = (0..32)
                .filter(|i| c.contains_fresh(&n(&format!("k{i}.b")), RecordType::A, t(32)))
                .map(|i| i.to_string())
                .collect();
            alive.sort();
            alive
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reinserting_same_key_does_not_evict() {
        let mut c = DnsCache::new(
            1,
            CacheConfig {
                capacity: 1,
                ..CacheConfig::default()
            },
        );
        c.insert(n("a.b"), RecordType::A, vec![a_rec("a.b", 60)], t(0));
        c.insert(n("a.b"), RecordType::A, vec![a_rec("a.b", 120)], t(1));
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = DnsCache::with_defaults(1);
        c.insert(n("a.b"), RecordType::A, vec![a_rec("a.b", 60)], t(0));
        c.flush();
        assert!(c.is_empty());
        assert_eq!(c.lookup(&n("a.b"), RecordType::A, t(0)), CacheLookup::Miss);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        DnsCache::new(
            1,
            CacheConfig {
                capacity: 0,
                ..CacheConfig::default()
            },
        );
    }

    #[test]
    fn repeated_query_within_ttl_hits_once_inserted() {
        // The §II-C consistency property: one upstream fetch per TTL window.
        let mut c = DnsCache::with_defaults(1);
        let mut upstream_queries = 0;
        for second in 0..120u64 {
            let now = t(second);
            if !c.lookup(&n("a.b"), RecordType::A, now).is_hit() {
                upstream_queries += 1;
                c.insert(n("a.b"), RecordType::A, vec![a_rec("a.b", 60)], now);
            }
        }
        assert_eq!(upstream_queries, 2); // once at t=0, once at t=60
    }
}
