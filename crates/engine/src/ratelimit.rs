//! Token-bucket rate limiting for probe campaigns.
//!
//! Live probing must be polite twice over: a *global* budget caps the
//! engine's aggregate send rate, and a *per-target* budget keeps any single
//! ingress address from seeing a burst even when the global budget would
//! allow it (the paper's measurements deliberately spread load for this
//! reason). Both are classic token buckets. A debit never sleeps: it
//! returns the wait the caller must absorb, and the reactor pays it by
//! scheduling the send after that delay.

use cde_telemetry::{Collector, Metric};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Refill rate and burst capacity of one bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateConfig {
    /// Sustained rate in tokens (probes) per second.
    pub per_second: f64,
    /// Bucket capacity: probes that may be sent back-to-back after idle.
    pub burst: f64,
}

impl RateConfig {
    /// A rate of `per_second` with a small default burst of 4.
    pub fn per_second(per_second: f64) -> RateConfig {
        RateConfig {
            per_second,
            burst: 4.0,
        }
    }
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last_refill: Instant,
}

impl Bucket {
    fn full(cfg: &RateConfig) -> Bucket {
        Bucket {
            tokens: cfg.burst,
            last_refill: Instant::now(),
        }
    }

    /// Takes `n` tokens at once — one bucket update for a whole send
    /// batch instead of `n` lock round-trips.
    fn debit_n(&mut self, cfg: &RateConfig, n: u32) -> Duration {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + elapsed * cfg.per_second).min(cfg.burst);
        self.last_refill = now;
        self.tokens -= f64::from(n);
        if self.tokens >= 0.0 {
            Duration::ZERO
        } else {
            // The deficit is repaid by future refill; the caller sleeps
            // until the bucket is whole again.
            Duration::from_secs_f64(-self.tokens / cfg.per_second)
        }
    }

    /// Returns `tokens` to the bucket, capped at its burst capacity.
    fn refund(&mut self, cfg: &RateConfig, tokens: f64) {
        self.tokens = (self.tokens + tokens).min(cfg.burst);
    }
}

/// A global plus optional per-target token-bucket limiter.
///
/// Thread-safe: campaign workers share one limiter behind an `Arc`.
#[derive(Debug)]
pub struct RateLimiter {
    global_cfg: RateConfig,
    global: Mutex<Bucket>,
    per_target_cfg: Option<RateConfig>,
    per_target: Mutex<HashMap<Ipv4Addr, Bucket>>,
    /// Tokens debited (probes paid for), for telemetry.
    tokens_debited: AtomicU64,
    /// Debits that came back with a non-zero wait.
    delayed_debits: AtomicU64,
    /// Cumulative wait imposed across all debits, in microseconds.
    delay_us: AtomicU64,
}

impl RateLimiter {
    /// Creates a limiter with a global budget and, optionally, a separate
    /// budget applied to each distinct target address.
    pub fn new(global: RateConfig, per_target: Option<RateConfig>) -> RateLimiter {
        RateLimiter {
            global: Mutex::new(Bucket::full(&global)),
            global_cfg: global,
            per_target_cfg: per_target,
            per_target: Mutex::new(HashMap::new()),
            tokens_debited: AtomicU64::new(0),
            delayed_debits: AtomicU64::new(0),
            delay_us: AtomicU64::new(0),
        }
    }

    fn record_debit(&self, n: u32, wait: Duration) {
        self.tokens_debited
            .fetch_add(u64::from(n), Ordering::Relaxed);
        if !wait.is_zero() {
            self.delayed_debits.fetch_add(1, Ordering::Relaxed);
            self.delay_us.fetch_add(
                wait.as_micros().min(u128::from(u64::MAX)) as u64,
                Ordering::Relaxed,
            );
        }
    }

    /// Computes the wait needed to send one probe to `target` now and
    /// debits both buckets. Does not sleep.
    pub fn debit(&self, target: Ipv4Addr) -> Duration {
        self.debit_n(target, 1)
    }

    /// Batch-aware token take: debits `n` probes to `target` in one
    /// bucket update and returns the wait the *batch* must absorb before
    /// it is within budget. The reactor pays this by scheduling the
    /// batch's sends after the returned delay instead of sleeping.
    pub fn debit_n(&self, target: Ipv4Addr, n: u32) -> Duration {
        if n == 0 {
            return Duration::ZERO;
        }
        let global_wait = self.global.lock().debit_n(&self.global_cfg, n);
        let target_wait = match &self.per_target_cfg {
            Some(cfg) => self
                .per_target
                .lock()
                .entry(target)
                .or_insert_with(|| Bucket::full(cfg))
                .debit_n(cfg, n),
            None => Duration::ZERO,
        };
        if target_wait > global_wait {
            // The per-target bucket defers this batch further into the
            // future than the global budget does. Keeping the global
            // tokens debited *now* would let one slow target hold the
            // shared budget hostage — other targets stall for capacity
            // this batch cannot use until `target_wait` passes. Global
            // refill arriving during that extra wait pays for the batch
            // instead, so hand the difference back (equivalent to
            // charging the global bucket at actual send time).
            let covered = (target_wait - global_wait).as_secs_f64() * self.global_cfg.per_second;
            self.global
                .lock()
                .refund(&self.global_cfg, f64::from(n).min(covered));
        }
        let wait = global_wait.max(target_wait);
        self.record_debit(n, wait);
        wait
    }

    /// Tokens debited so far (probes paid for).
    pub fn tokens_debited(&self) -> u64 {
        self.tokens_debited.load(Ordering::Relaxed)
    }

    /// Debits that imposed a non-zero wait.
    pub fn delayed_debits(&self) -> u64 {
        self.delayed_debits.load(Ordering::Relaxed)
    }

    /// Cumulative wait imposed on callers.
    pub fn total_delay(&self) -> Duration {
        Duration::from_micros(self.delay_us.load(Ordering::Relaxed))
    }
}

impl Collector for RateLimiter {
    fn collect(&self, out: &mut Vec<Metric>) {
        out.push(Metric::counter(
            "cde_ratelimit_tokens_total",
            "Probe tokens debited from the rate limiter",
            self.tokens_debited(),
        ));
        out.push(Metric::counter(
            "cde_ratelimit_delayed_debits_total",
            "Debits that imposed a non-zero pacing wait",
            self.delayed_debits(),
        ));
        out.push(Metric::counter(
            "cde_ratelimit_delay_us_total",
            "Cumulative pacing wait imposed, in microseconds",
            self.delay_us.load(Ordering::Relaxed),
        ));
        out.push(Metric::gauge(
            "cde_ratelimit_targets",
            "Distinct targets with a live per-target bucket",
            self.per_target.lock().len() as f64,
        ));
    }
}

/// Per-tenant registration for a [`WeightedRateLimiter`]: a relative
/// weight (share of the global budget) plus an optional absolute cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRate {
    /// Relative weight; tenant share = global × weight / Σ weights.
    /// Must be > 0 — every registered tenant always has a non-zero
    /// refill rate, so no tenant can be starved.
    pub weight: f64,
    /// Optional absolute ceiling applied on top of the weighted share.
    pub cap: Option<RateConfig>,
}

impl TenantRate {
    /// A weight-only registration with no absolute cap.
    pub fn weighted(weight: f64) -> TenantRate {
        TenantRate { weight, cap: None }
    }
}

#[derive(Debug)]
struct TenantState {
    rate: TenantRate,
    share_cfg: RateConfig,
    share: Bucket,
    cap: Option<Bucket>,
    debited: u64,
    delay_us: u64,
}

/// A multi-tenant generalisation of [`RateLimiter`]: one global token
/// bucket whose refill is *shared* between tenants in proportion to
/// their weights, with optional per-tenant absolute caps.
///
/// Fairness model:
/// * Each tenant owns a **share bucket** refilled at
///   `global.per_second × weight / Σ weights` — re-derived whenever the
///   tenant set or a weight changes. A tenant can never exceed its
///   share over a sustained window, so a heavy tenant cannot crowd a
///   light one out of the global budget.
/// * Every share rate is strictly positive (weights must be > 0), so
///   scheduling is starvation-free: any tenant that keeps asking is
///   served at least at its share rate.
/// * The **global bucket** still bounds the aggregate, and uses the
///   same held-token refund as [`RateLimiter::debit_n`]: a tenant whose
///   own share defers a probe far into the future hands the global
///   tokens back rather than holding them hostage.
///
/// Thread-safe; every shard and tenant shares one limiter behind an `Arc`.
#[derive(Debug)]
pub struct WeightedRateLimiter {
    global_cfg: RateConfig,
    global: Mutex<Bucket>,
    tenants: Mutex<HashMap<String, TenantState>>,
}

impl WeightedRateLimiter {
    /// A weighted limiter sharing `global` between registered tenants.
    pub fn new(global: RateConfig) -> WeightedRateLimiter {
        WeightedRateLimiter {
            global: Mutex::new(Bucket::full(&global)),
            global_cfg: global,
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// The global budget all tenant shares are carved from.
    pub fn global_config(&self) -> RateConfig {
        self.global_cfg
    }

    /// Registers `tenant` (or updates its registration) and re-derives
    /// every tenant's share of the global budget.
    ///
    /// # Panics
    ///
    /// Panics if `rate.weight` is not strictly positive and finite —
    /// zero-weight tenants would reintroduce starvation.
    pub fn register(&self, tenant: &str, rate: TenantRate) {
        assert!(
            rate.weight > 0.0 && rate.weight.is_finite(),
            "tenant weight must be positive and finite, got {}",
            rate.weight
        );
        let mut tenants = self.tenants.lock();
        match tenants.get_mut(tenant) {
            Some(state) => {
                state.rate = rate;
                state.cap = rate.cap.map(|cfg| Bucket::full(&cfg));
            }
            None => {
                // Placeholder share; fixed up below once the new weight
                // sum is known.
                let share_cfg = self.global_cfg;
                tenants.insert(
                    tenant.to_owned(),
                    TenantState {
                        rate,
                        share_cfg,
                        share: Bucket::full(&share_cfg),
                        cap: rate.cap.map(|cfg| Bucket::full(&cfg)),
                        debited: 0,
                        delay_us: 0,
                    },
                );
            }
        }
        Self::recompute_shares(&self.global_cfg, &mut tenants);
    }

    /// Re-derives each tenant's share config from the current weights.
    fn recompute_shares(global: &RateConfig, tenants: &mut HashMap<String, TenantState>) {
        let total: f64 = tenants.values().map(|s| s.rate.weight).sum();
        if total <= 0.0 {
            return;
        }
        for state in tenants.values_mut() {
            let fraction = state.rate.weight / total;
            state.share_cfg = RateConfig {
                per_second: global.per_second * fraction,
                // Keep at least one token of headroom so a tiny weight
                // still admits whole probes.
                burst: (global.burst * fraction).max(1.0),
            };
        }
    }

    /// Debits `n` probes from `tenant`'s share (auto-registering it
    /// with weight 1 if unknown), its optional cap, and the global
    /// bucket; returns the wait the caller must absorb before sending.
    /// Does not sleep.
    pub fn debit_n(&self, tenant: &str, n: u32) -> Duration {
        if n == 0 {
            return Duration::ZERO;
        }
        let inner_wait = {
            let mut tenants = self.tenants.lock();
            if !tenants.contains_key(tenant) {
                drop(tenants);
                self.register(tenant, TenantRate::weighted(1.0));
                tenants = self.tenants.lock();
            }
            let state = tenants.get_mut(tenant).expect("registered above");
            let share_wait = state.share.debit_n(&state.share_cfg, n);
            let cap_wait = match (&mut state.cap, state.rate.cap) {
                (Some(bucket), Some(cfg)) => bucket.debit_n(&cfg, n),
                _ => Duration::ZERO,
            };
            state.debited += u64::from(n);
            share_wait.max(cap_wait)
        };
        let global_wait = self.global.lock().debit_n(&self.global_cfg, n);
        if inner_wait > global_wait {
            // Same hostage-avoidance refund as `RateLimiter::debit_n`:
            // tokens this deferred batch cannot use yet go back to the
            // shared pool for other tenants.
            let covered = (inner_wait - global_wait).as_secs_f64() * self.global_cfg.per_second;
            self.global
                .lock()
                .refund(&self.global_cfg, f64::from(n).min(covered));
        }
        let wait = inner_wait.max(global_wait);
        if !wait.is_zero() {
            let mut tenants = self.tenants.lock();
            if let Some(state) = tenants.get_mut(tenant) {
                state.delay_us += wait.as_micros().min(u128::from(u64::MAX)) as u64;
            }
        }
        wait
    }

    /// Tokens debited by `tenant` so far.
    pub fn tenant_debited(&self, tenant: &str) -> u64 {
        self.tenants.lock().get(tenant).map_or(0, |s| s.debited)
    }

    /// The share rate currently derived for `tenant`, if registered.
    pub fn tenant_share(&self, tenant: &str) -> Option<RateConfig> {
        self.tenants.lock().get(tenant).map(|s| s.share_cfg)
    }
}

/// Per-tenant token counters and derived share rates, labelled by
/// tenant so one scrape shows how the global budget is being split.
impl Collector for WeightedRateLimiter {
    fn collect(&self, out: &mut Vec<Metric>) {
        let tenants = self.tenants.lock();
        let mut names: Vec<&String> = tenants.keys().collect();
        names.sort();
        for name in names {
            let state = &tenants[name];
            out.push(
                Metric::counter(
                    "cde_ratelimit_tenant_tokens_total",
                    "Probe tokens debited per tenant",
                    state.debited,
                )
                .with_label("tenant", name.clone()),
            );
            out.push(
                Metric::counter(
                    "cde_ratelimit_tenant_delay_us_total",
                    "Cumulative pacing wait imposed per tenant, microseconds",
                    state.delay_us,
                )
                .with_label("tenant", name.clone()),
            );
            out.push(
                Metric::gauge(
                    "cde_ratelimit_tenant_share_per_second",
                    "Weighted share of the global probe budget, probes/s",
                    state.share_cfg.per_second,
                )
                .with_label("tenant", name.clone()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, d)
    }

    #[test]
    fn burst_is_free_then_rate_applies() {
        let limiter = RateLimiter::new(
            RateConfig {
                per_second: 1000.0,
                burst: 8.0,
            },
            None,
        );
        for _ in 0..8 {
            assert_eq!(limiter.debit(ip(1)), Duration::ZERO);
        }
        // The ninth probe must wait roughly one refill period.
        let wait = limiter.debit(ip(1));
        assert!(wait > Duration::ZERO);
        assert!(wait <= Duration::from_millis(5));
    }

    #[test]
    fn per_target_budget_bites_before_global() {
        let limiter = RateLimiter::new(
            RateConfig {
                per_second: 1_000_000.0,
                burst: 1000.0,
            },
            Some(RateConfig {
                per_second: 100.0,
                burst: 1.0,
            }),
        );
        assert_eq!(limiter.debit(ip(1)), Duration::ZERO);
        // Second probe to the same target exceeds its budget...
        assert!(limiter.debit(ip(1)) > Duration::ZERO);
        // ...while a different target still has its own burst.
        assert_eq!(limiter.debit(ip(2)), Duration::ZERO);
    }

    #[test]
    fn batch_debit_equals_serial_debits() {
        let cfg = RateConfig {
            per_second: 1000.0,
            burst: 8.0,
        };
        let serial = RateLimiter::new(cfg, None);
        let batch = RateLimiter::new(cfg, None);
        let mut serial_wait = Duration::ZERO;
        for _ in 0..12 {
            serial_wait = serial_wait.max(serial.debit(ip(1)));
        }
        let batch_wait = batch.debit_n(ip(1), 12);
        // 12 probes against a burst of 8 at 1000/s: both shapes owe the
        // refill time of the 4-token deficit (~4 ms), modulo timing noise.
        assert!(batch_wait > Duration::from_millis(2));
        assert!(serial_wait > Duration::from_millis(2));
        let diff = batch_wait.abs_diff(serial_wait);
        assert!(diff < Duration::from_millis(2), "diff {diff:?}");
        assert_eq!(batch.debit_n(ip(1), 0), Duration::ZERO);
    }

    #[test]
    fn debit_counters_feed_the_collector() {
        let limiter = RateLimiter::new(
            RateConfig {
                per_second: 1000.0,
                burst: 2.0,
            },
            Some(RateConfig {
                per_second: 1000.0,
                burst: 2.0,
            }),
        );
        limiter.debit(ip(1));
        limiter.debit_n(ip(2), 4); // exceeds the burst → delayed
        assert_eq!(limiter.tokens_debited(), 5);
        assert_eq!(limiter.delayed_debits(), 1);
        assert!(limiter.total_delay() > Duration::ZERO);
        let mut out = Vec::new();
        limiter.collect(&mut out);
        let targets = out
            .iter()
            .find(|m| m.name == "cde_ratelimit_targets")
            .unwrap();
        assert!(
            matches!(targets.value, cde_telemetry::MetricValue::Gauge(v) if v == 2.0),
            "two per-target buckets expected"
        );
    }

    #[test]
    fn exhausted_per_target_bucket_does_not_hold_global_hostage() {
        let limiter = RateLimiter::new(
            RateConfig {
                per_second: 100.0,
                burst: 8.0,
            },
            Some(RateConfig {
                per_second: 1.0,
                burst: 1.0,
            }),
        );
        // Eight probes to one target: its 1-token/s bucket defers the
        // batch ~7 s out — far beyond anything the global bucket
        // constrains. Those global tokens are refunded because refill
        // arriving during the per-target wait pays for the batch.
        let slow = limiter.debit_n(ip(1), 8);
        assert!(slow >= Duration::from_secs(5), "got {slow:?}");
        // The global burst must still be available to other targets.
        // Before the refund fix these eight tokens were gone and ip(2)
        // stalled behind a target it shares nothing with.
        assert_eq!(limiter.debit(ip(2)), Duration::ZERO);
    }

    #[test]
    fn weighted_shares_split_the_global_budget() {
        let limiter = WeightedRateLimiter::new(RateConfig {
            per_second: 400.0,
            burst: 8.0,
        });
        limiter.register("light", TenantRate::weighted(1.0));
        limiter.register("heavy", TenantRate::weighted(3.0));
        let light = limiter.tenant_share("light").unwrap();
        let heavy = limiter.tenant_share("heavy").unwrap();
        assert!((light.per_second - 100.0).abs() < 1e-9);
        assert!((heavy.per_second - 300.0).abs() < 1e-9);
        // Registering a third tenant re-derives everyone's share.
        limiter.register("mid", TenantRate::weighted(4.0));
        let light = limiter.tenant_share("light").unwrap();
        assert!((light.per_second - 50.0).abs() < 1e-9);
    }

    #[test]
    fn tenant_cap_binds_below_the_share() {
        let limiter = WeightedRateLimiter::new(RateConfig {
            per_second: 10_000.0,
            burst: 1000.0,
        });
        limiter.register(
            "capped",
            TenantRate {
                weight: 1.0,
                cap: Some(RateConfig {
                    per_second: 100.0,
                    burst: 1.0,
                }),
            },
        );
        assert_eq!(limiter.debit_n("capped", 1), Duration::ZERO);
        // The share would allow far more, but the absolute cap bites.
        assert!(limiter.debit_n("capped", 1) > Duration::ZERO);
    }

    #[test]
    fn slow_tenant_does_not_starve_fast_tenant() {
        let limiter = WeightedRateLimiter::new(RateConfig {
            per_second: 100.0,
            burst: 8.0,
        });
        limiter.register(
            "slow",
            TenantRate {
                weight: 1.0,
                cap: Some(RateConfig {
                    per_second: 1.0,
                    burst: 1.0,
                }),
            },
        );
        limiter.register("fast", TenantRate::weighted(1.0));
        // "slow" asks for a burst its cap defers seconds into the
        // future; the refund keeps the global pool whole for "fast".
        let deferred = limiter.debit_n("slow", 8);
        assert!(deferred >= Duration::from_secs(5), "got {deferred:?}");
        assert_eq!(limiter.debit_n("fast", 1), Duration::ZERO);
    }

    #[test]
    fn unknown_tenant_is_auto_registered_and_counted() {
        let limiter = WeightedRateLimiter::new(RateConfig {
            per_second: 1000.0,
            burst: 8.0,
        });
        assert_eq!(limiter.debit_n("walk-in", 2), Duration::ZERO);
        assert_eq!(limiter.tenant_debited("walk-in"), 2);
        let mut out = Vec::new();
        limiter.collect(&mut out);
        let tokens = out
            .iter()
            .find(|m| m.name == "cde_ratelimit_tenant_tokens_total")
            .expect("per-tenant counter exported");
        assert!(tokens
            .labels
            .iter()
            .any(|(k, v)| *k == "tenant" && v == "walk-in"));
    }

    #[test]
    fn weighted_debits_pace_tenants_by_weight() {
        let limiter = Arc::new(WeightedRateLimiter::new(RateConfig {
            per_second: 4000.0,
            burst: 1.0,
        }));
        limiter.register("light", TenantRate::weighted(1.0));
        limiter.register("heavy", TenantRate::weighted(3.0));
        let run = |tenant: &'static str| {
            let limiter = Arc::clone(&limiter);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let mut sent = 0u64;
                while t0.elapsed() < Duration::from_millis(250) {
                    std::thread::sleep(limiter.debit_n(tenant, 1));
                    sent += 1;
                }
                sent
            })
        };
        let light = run("light");
        let heavy = run("heavy");
        let light = light.join().unwrap() as f64;
        let heavy = heavy.join().unwrap() as f64;
        let ratio = heavy / light.max(1.0);
        // Weights 1:3 → sustained throughput ratio ≈ 3, generous slack
        // for scheduler noise on loaded CI machines.
        assert!(
            (1.8..=5.0).contains(&ratio),
            "heavy/light ratio {ratio:.2} (heavy {heavy}, light {light})"
        );
    }

    #[test]
    fn sustained_rate_converges() {
        let limiter = RateLimiter::new(
            RateConfig {
                per_second: 2000.0,
                burst: 1.0,
            },
            None,
        );
        let t0 = Instant::now();
        for _ in 0..20 {
            std::thread::sleep(limiter.debit(ip(1)));
        }
        // 20 probes at 2000/s need ≥ ~9.5 ms (first is burst).
        assert!(t0.elapsed() >= Duration::from_millis(7));
    }
}
