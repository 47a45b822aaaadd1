//! Cache-selection strategies for the load balancer.
//!
//! The paper (§IV-A) identifies two broad families — *traffic dependent*
//! (round robin, least loaded: they spread query volume evenly) and
//! *unpredictable* (uniformly random) — plus "more complex strategies"
//! keyed on the requested domain or the client's source address. All four
//! are implemented here; which one a platform uses materially changes how
//! many probes an enumeration needs, which is exactly the `selectors`
//! ablation bench.

use cde_dns::Name;
use rand::Rng;
use std::net::Ipv4Addr;

/// Which cache-selection strategy a load balancer applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectorKind {
    /// Cycle through caches in order (traffic dependent).
    RoundRobin,
    /// Uniformly random (unpredictable) — the paper measured this family in
    /// more than 80% of networks, so it is the default.
    #[default]
    Random,
    /// Hash of the queried name (complex, domain-dependent).
    QnameHash,
    /// Hash of the client's source address (complex, client-affine).
    SourceHash,
    /// Send to the cache with the least queries so far (traffic dependent).
    LeastLoaded,
}

impl SelectorKind {
    /// All strategies, for ablation sweeps.
    pub fn all() -> [SelectorKind; 5] {
        [
            SelectorKind::RoundRobin,
            SelectorKind::Random,
            SelectorKind::QnameHash,
            SelectorKind::SourceHash,
            SelectorKind::LeastLoaded,
        ]
    }

    /// `true` for the paper's "unpredictable" family.
    pub fn is_unpredictable(self) -> bool {
        matches!(self, SelectorKind::Random)
    }
}

impl std::fmt::Display for SelectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectorKind::RoundRobin => write!(f, "round-robin"),
            SelectorKind::Random => write!(f, "random"),
            SelectorKind::QnameHash => write!(f, "qname-hash"),
            SelectorKind::SourceHash => write!(f, "source-hash"),
            SelectorKind::LeastLoaded => write!(f, "least-loaded"),
        }
    }
}

/// The load balancer in front of one cache cluster: picks exactly one cache
/// per arriving query (§IV-A: "exactly one cache is selected ... for
/// sampling").
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    kind: SelectorKind,
    cache_count: usize,
    rr_next: usize,
    loads: Vec<u64>,
}

impl LoadBalancer {
    /// Creates a balancer over `cache_count` caches.
    ///
    /// # Panics
    ///
    /// Panics when `cache_count` is zero.
    pub fn new(kind: SelectorKind, cache_count: usize) -> LoadBalancer {
        assert!(cache_count > 0, "cache count must be positive");
        LoadBalancer {
            kind,
            cache_count,
            rr_next: 0,
            loads: vec![0; cache_count],
        }
    }

    /// The strategy in use.
    pub fn kind(&self) -> SelectorKind {
        self.kind
    }

    /// Number of caches balanced over.
    pub fn cache_count(&self) -> usize {
        self.cache_count
    }

    /// Per-cache query counts so far.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Selects the cache index for one query.
    pub fn select<R: Rng + ?Sized>(&mut self, qname: &Name, src: Ipv4Addr, rng: &mut R) -> usize {
        let idx = match self.kind {
            SelectorKind::RoundRobin => {
                let i = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.cache_count;
                i
            }
            SelectorKind::Random => rng.gen_range(0..self.cache_count),
            SelectorKind::QnameHash => (fnv_presentation(qname) as usize) % self.cache_count,
            SelectorKind::SourceHash => (fnv(&src.octets()) as usize) % self.cache_count,
            SelectorKind::LeastLoaded => self
                .loads
                .iter()
                .enumerate()
                .min_by_key(|(i, l)| (**l, *i))
                .map(|(i, _)| i)
                .expect("cache_count > 0"),
        };
        self.loads[idx] += 1;
        idx
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

fn fnv(bytes: &[u8]) -> u64 {
    fnv_extend(FNV_OFFSET, bytes)
}

fn fnv_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// FNV-1a over the name's presentation form (`"www.example."`, `"."` for
/// the root), fed label by label instead of formatting a `String`.
fn fnv_presentation(qname: &Name) -> u64 {
    if qname.is_root() {
        return fnv(b".");
    }
    qname.labels().fold(FNV_OFFSET, |h, label| {
        fnv_extend(fnv_extend(h, label), b".")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cde_netsim::DetRng;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn src() -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, 10)
    }

    #[test]
    fn round_robin_cycles() {
        let mut lb = LoadBalancer::new(SelectorKind::RoundRobin, 3);
        let mut rng = DetRng::seed(0);
        let picks: Vec<usize> = (0..7)
            .map(|_| lb.select(&n("a.b"), src(), &mut rng))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn random_covers_all_caches_eventually() {
        let mut lb = LoadBalancer::new(SelectorKind::Random, 8);
        let mut rng = DetRng::seed(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(lb.select(&n("a.b"), src(), &mut rng));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn random_is_roughly_uniform() {
        let mut lb = LoadBalancer::new(SelectorKind::Random, 4);
        let mut rng = DetRng::seed(2);
        for _ in 0..40_000 {
            lb.select(&n("a.b"), src(), &mut rng);
        }
        for &l in lb.loads() {
            assert!((9_000..11_000).contains(&(l as usize)), "load {l}");
        }
    }

    #[test]
    fn qname_hash_is_sticky_per_name() {
        let mut lb = LoadBalancer::new(SelectorKind::QnameHash, 5);
        let mut rng = DetRng::seed(3);
        let first = lb.select(&n("sticky.example"), src(), &mut rng);
        for _ in 0..10 {
            assert_eq!(lb.select(&n("sticky.example"), src(), &mut rng), first);
        }
        // Different names spread across caches.
        let mut seen = std::collections::HashSet::new();
        for i in 0..100 {
            seen.insert(lb.select(&n(&format!("x-{i}.example")), src(), &mut rng));
        }
        assert!(seen.len() >= 4);
    }

    #[test]
    fn qname_hash_indices_are_pinned() {
        // The hash reads the presentation form ("www.example."), so these
        // indices must not move when the name's representation does.
        let long = format!("{}.example", "a".repeat(63));
        let cases: [(&str, usize); 5] = [
            (".", 9),
            (long.as_str(), 213),
            ("WWW.Cache.Example", 555),
            ("x-1.cache.example", 76),
            ("_srv.*.b", 627),
        ];
        let mut rng = DetRng::seed(5);
        for (text, want) in cases {
            let mut lb = LoadBalancer::new(SelectorKind::QnameHash, 1009);
            let got = lb.select(&n(text), src(), &mut rng);
            assert_eq!(got, want, "{text}");
        }
    }

    #[test]
    fn source_hash_is_sticky_per_client() {
        let mut lb = LoadBalancer::new(SelectorKind::SourceHash, 5);
        let mut rng = DetRng::seed(4);
        let a = Ipv4Addr::new(1, 2, 3, 4);
        let first = lb.select(&n("a.b"), a, &mut rng);
        for i in 0..10 {
            assert_eq!(lb.select(&n(&format!("q{i}.b")), a, &mut rng), first);
        }
    }

    #[test]
    fn least_loaded_balances_exactly() {
        let mut lb = LoadBalancer::new(SelectorKind::LeastLoaded, 4);
        let mut rng = DetRng::seed(5);
        for _ in 0..16 {
            lb.select(&n("a.b"), src(), &mut rng);
        }
        assert_eq!(lb.loads(), &[4, 4, 4, 4]);
    }

    #[test]
    fn loads_track_every_selection() {
        let mut lb = LoadBalancer::new(SelectorKind::Random, 3);
        let mut rng = DetRng::seed(6);
        for _ in 0..50 {
            lb.select(&n("a.b"), src(), &mut rng);
        }
        assert_eq!(lb.loads().iter().sum::<u64>(), 50);
    }

    #[test]
    #[should_panic(expected = "cache count")]
    fn zero_caches_rejected() {
        LoadBalancer::new(SelectorKind::Random, 0);
    }

    #[test]
    fn only_random_is_unpredictable() {
        for k in SelectorKind::all() {
            assert_eq!(k.is_unpredictable(), k == SelectorKind::Random);
        }
    }
}
