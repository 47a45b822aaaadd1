//! Engine observability: lock-free counters and a latency histogram.
//!
//! [`MetricsBlock`] is the shared atomic counter block every transport
//! and reactor shard hammers from its hot path. [`EngineMetrics`] owns
//! one block per reactor shard and presents them as a single engine:
//! every read-side method (`snapshot`, the `Collector` impl) merges the
//! blocks, while a handful of write-side methods delegate to block 0 so
//! code that treats the engine as one counter set (the in-process
//! transports, the pipelined campaign's paced window) needs no shard
//! index. A reactor shard instead grabs `shard(i)` once at launch and
//! records into its own block with zero cross-core contention.
//!
//! Each counter is one row of the
//! [`counter_block!`](cde_telemetry::counter_block) table below (cell,
//! snapshot field, merge fold, Prometheus family, plain increment).
//! Hand-written code is left for record sites touching several cells,
//! the derived helpers and `Display`, and the families no single row
//! owns (dropped replies by reason, duty cycle, the three histograms).
//!
//! Registering [`EngineMetrics`] into a
//! [`MetricsRegistry`](cde_telemetry::MetricsRegistry) exposes every
//! counter, gauge and histogram over Prometheus text or JSON snapshots;
//! with more than one block, each family is exported per shard with a
//! `shard` label.

use cde_telemetry::{counter_block, Collector, Metric};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Number of exponential latency buckets. Bucket 0 holds
/// `[0, BASE_US)` microseconds and bucket `i ≥ 1` holds
/// `[BASE_US << (i - 1), BASE_US << i)`, so `BASE_US << i` is bucket
/// `i`'s exported `le` edge; the last bucket is open-ended.
const BUCKETS: usize = 24;
/// Upper edge of bucket 0, in microseconds.
const BASE_US: u64 = 16;
/// Power-of-two send-batch size buckets: bucket `i` counts batches of
/// `2^i` to `2^(i+1) − 1` datagrams; the last bucket is open-ended.
const BATCH_BUCKETS: usize = 8;

counter_block! {
    /// Shared atomic counters for one engine shard (or a whole unsharded
    /// engine — an in-process transport is "shard 0" of a 1-block engine).
    ///
    /// All methods take `&self`; the struct is designed to sit behind an
    /// `Arc`, written by its shard loop while other threads snapshot it.
    /// `snapshot()` produces a consistent-enough point-in-time copy for
    /// reporting (individual loads are relaxed; exact cross-counter
    /// consistency is not needed for telemetry).
    #[derive(Debug, Default)]
    pub struct MetricsBlock;
    /// Point-in-time copy of a [`MetricsBlock`] (or of a whole
    /// [`EngineMetrics`], merged across its shards: every field sums
    /// except the two `*_max_us`, which keep the slowest shard's; the
    /// summed `*_peak` gauges bound the true simultaneous peak).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct MetricsSnapshot;

    /// Datagrams handed to the OS (every attempt counts).
    sent: AtomicU64, sum, counter "cde_engine_sent_total"
        "Datagrams handed to the OS (every attempt counts)" => pub record_sent;
    /// Responses received and matched to an outstanding probe.
    received: AtomicU64, sum, counter "cde_engine_received_total"
        "Responses matched to an outstanding probe";
    /// Probes that exhausted every attempt without an answer.
    timeouts: AtomicU64, sum, counter "cde_engine_timeouts_total"
        "Probes that exhausted every attempt unanswered" => pub record_timeout;
    /// Retransmissions after a per-attempt deadline.
    retries: AtomicU64, sum, counter "cde_engine_retries_total"
        "Retransmissions after a per-attempt deadline" => pub record_retry;
    /// Times a sender had to wait for rate-limiter tokens.
    rate_limit_stalls: AtomicU64, sum, counter "cde_engine_rate_limit_stalls_total"
        "Times a sender waited for rate-limiter tokens";
    /// Cumulative time spent stalled on the rate limiter, in microseconds.
    rate_limit_wait_us: AtomicU64, sum, counter "cde_engine_rate_limit_wait_us_total"
        "Cumulative rate-limiter wait, in microseconds";
    /// Datagrams that arrived but failed wire decoding or ID matching,
    /// plus receive calls that failed outright (a socket that cannot be
    /// read yields nothing decodable either).
    decode_errors: AtomicU64, sum, counter "cde_engine_decode_errors_total"
        "Datagrams that failed wire decoding or matching" => pub record_decode_error;
    /// Latency histogram counts (exponential microsecond buckets).
    latency_buckets: [AtomicU64; BUCKETS], sum;
    /// Sum of recorded latencies in microseconds.
    latency_sum_us: AtomicU64, sum;
    /// Number of recorded latencies.
    latency_count: AtomicU64, sum;
    /// Probes in flight at snapshot time (reactor gauge).
    in_flight: AtomicU64, sum, gauge "cde_engine_in_flight" "Probes currently in flight";
    /// Highest in-flight count seen.
    in_flight_peak: AtomicU64, sum, gauge "cde_engine_in_flight_peak"
        "Correlation-slab occupancy high-water mark";
    /// Well-formed replies with no matching outstanding probe (wrong or
    /// stale query id, or a reply arriving after the probe timed out).
    stray_replies: AtomicU64, sum => pub record_stray_reply;
    /// Replies that matched a correlation key but came from a source
    /// address other than the probed target — spoofing, dropped.
    spoofed_replies: AtomicU64, sum => pub record_spoofed_reply;
    /// Replies that matched `(socket, id)` but echoed a different
    /// question — a query-id collision, dropped.
    qname_mismatches: AtomicU64, sum => pub record_qname_mismatch;
    /// Send-batch size histogram (power-of-two buckets).
    batch_buckets: [AtomicU64; BATCH_BUCKETS], sum;
    /// Total datagrams across all batched sends (batch fill numerator).
    batch_datagrams: AtomicU64, sum;
    /// Reactor loop iterations measured.
    loop_count: AtomicU64, sum;
    /// Total reactor loop time in microseconds.
    loop_sum_us: AtomicU64, sum;
    /// Slowest reactor loop iteration in microseconds.
    loop_max_us: AtomicU64, max;
    /// Reactor tick (loop-iteration) latency histogram, same exponential
    /// microsecond buckets as the probe latency histogram.
    loop_buckets: [AtomicU64; BUCKETS], sum;
    /// Timers pending in the reactor wheel at snapshot time: live ones
    /// only, at most one per in-flight probe.
    wheel_pending: AtomicU64, sum, gauge "cde_engine_wheel_pending"
        "Timers pending in the reactor wheel";
    /// Highest wheel-pending count seen.
    wheel_pending_peak: AtomicU64, sum, gauge "cde_engine_wheel_pending_peak"
        "High-water mark of pending reactor timers";
    /// Correlation-slab capacity, set once at reactor launch (0 outside
    /// a reactor); its occupancy gauge is `in_flight`.
    slab_capacity: AtomicU64, sum, gauge "cde_engine_slab_capacity"
        "Correlation-slab capacity (0 outside a reactor)";
    /// Submission-ring occupancy at snapshot time.
    ring_depth: AtomicU64, sum, gauge "cde_engine_ring_depth"
        "Submission-ring occupancy at scrape time";
    /// Highest submission-ring occupancy seen.
    ring_depth_peak: AtomicU64, sum, gauge "cde_engine_ring_depth_peak"
        "High-water mark of the submission-ring occupancy";
    /// Receive calls made (`recv_batch`, one per socket read).
    recv_calls: AtomicU64, sum, counter "cde_engine_recv_batches_total"
        "Receive calls the reactor loop made, one per socket read";
    /// Receive calls that returned no datagram — attempted minus useful.
    recv_empty: AtomicU64, sum, counter "cde_engine_recv_empty_total"
        "Receive calls that returned no datagram";
    /// Waits the shard entered: times its loop really blocked in the
    /// poller (a wait skipped for queued work is not one). A loop with
    /// a readiness-reporting poller enters one after every pass that
    /// leaves nothing queued, busy or idle.
    parks: AtomicU64, sum, counter "cde_engine_parks_total"
        "Times the reactor loop parked waiting for work";
    /// Total time spent parked, in microseconds, including the wait in
    /// progress.
    // The cell packs this into one word so a reader never sees a wait
    // both finished and still running: bit 0 is set while the loop is
    // blocked; bits 1.. hold `P` (mod 2^63), the total being `P` when
    // idle and `P + clock_us()` while blocked. `snapshot` unpacks it.
    parked_us: AtomicU64, sum, counter "cde_engine_parked_us_total"
        "Cumulative time the reactor loop spent parked, in microseconds";
    /// Times the loop was woken from a park by a submitter.
    unparks: AtomicU64, sum, counter "cde_engine_unparks_total"
        "Times the reactor loop was woken from a park by a submitter";
    /// Total wake-to-first-poll latency, in microseconds: from the
    /// waker's unpark call to the parked loop resuming.
    wake_latency_us: AtomicU64, sum, counter "cde_engine_wake_latency_us_total"
        "Cumulative wake-to-first-poll latency, in microseconds";
    /// Slowest single wake-to-first-poll, in microseconds.
    wake_latency_max_us: AtomicU64, max, gauge "cde_engine_wake_latency_max_us"
        "Slowest single wake-to-first-poll, in microseconds";
    /// Sends whose deadline came from the adaptive RTO table rather
    /// than the static retry schedule.
    adaptive_deadlines: AtomicU64, sum, counter "cde_engine_adaptive_deadlines_total"
        "Sends armed with a learned (adaptive RTO) deadline" => pub record_adaptive_deadline;
    /// Deadline expiries that backed a learned per-ingress RTO off.
    rto_backoffs: AtomicU64, sum, counter "cde_engine_rto_backoffs_total"
        "Deadline expiries that backed a learned per-ingress RTO off" => pub record_rto_backoff;
    /// Loss-aware submit window applied by the pipelined scheduler (0
    /// when pacing is off or before the first adjustment; only block
    /// 0's scheduler ever sets it).
    paced_window: AtomicU64, sum, gauge "cde_engine_paced_window"
        "Loss-aware submit window applied by the pipelined scheduler";
    /// Lifecycle records written to the shard flight rings.
    flight_records: AtomicU64, sum, counter "cde_engine_flight_records_total"
        "Probe lifecycle records written to the flight recorder rings" => pub record_flight_record;
    /// Flight-ring records overwritten unread (drop-oldest sheds).
    flight_shed: AtomicU64, sum, counter "cde_engine_flight_shed_total"
        "Flight-recorder records overwritten unread (drop-oldest)" => pub record_flight_shed;
}

/// A duration in whole microseconds, saturating at `u64::MAX`.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

impl MetricsBlock {
    /// Creates a zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one matched response, with its round-trip time.
    pub fn record_received(&self, rtt: Duration) {
        self.received.fetch_add(1, Ordering::Relaxed);
        let us = micros(rtt);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
        self.latency_buckets[bucket_for(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a rate-limiter stall of `waited`.
    pub fn record_rate_limit_stall(&self, waited: Duration) {
        self.rate_limit_stalls.fetch_add(1, Ordering::Relaxed);
        self.rate_limit_wait_us
            .fetch_add(micros(waited), Ordering::Relaxed);
    }

    /// Sets the in-flight gauge, tracking its high-water mark.
    pub fn set_in_flight(&self, n: u64) {
        self.in_flight.store(n, Ordering::Relaxed);
        self.in_flight_peak.fetch_max(n, Ordering::Relaxed);
    }

    /// Records one batched send of `n` datagrams.
    pub fn record_send_batch(&self, n: usize) {
        if n == 0 {
            return;
        }
        let idx = n.ilog2() as usize;
        self.batch_buckets[idx.min(BATCH_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.batch_datagrams.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records one reactor loop iteration taking `took`.
    pub fn record_loop_iteration(&self, took: Duration) {
        let us = micros(took);
        self.loop_count.fetch_add(1, Ordering::Relaxed);
        self.loop_sum_us.fetch_add(us, Ordering::Relaxed);
        self.loop_max_us.fetch_max(us, Ordering::Relaxed);
        self.loop_buckets[bucket_for(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the timer-wheel pending gauge, tracking its high-water mark.
    pub fn set_wheel_pending(&self, n: u64) {
        self.wheel_pending.store(n, Ordering::Relaxed);
        self.wheel_pending_peak.fetch_max(n, Ordering::Relaxed);
    }

    /// Records the correlation-slab capacity (once, at reactor launch).
    pub fn set_slab_capacity(&self, n: u64) {
        self.slab_capacity.store(n, Ordering::Relaxed);
    }

    /// Sets the submission-ring occupancy gauge, tracking its high-water
    /// mark.
    pub fn set_ring_depth(&self, n: u64) {
        self.ring_depth.store(n, Ordering::Relaxed);
        self.ring_depth_peak.fetch_max(n, Ordering::Relaxed);
    }

    /// Records one receive call that returned `got` messages — a
    /// coalesced run is one — (a failed call counts as returning none).
    pub fn record_recv_batch(&self, got: usize) {
        self.recv_calls.fetch_add(1, Ordering::Relaxed);
        if got == 0 {
            self.recv_empty.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one finished park of `slept` spent waiting for work.
    pub fn record_park(&self, slept: Duration) {
        self.parks.fetch_add(1, Ordering::Relaxed);
        self.parked_us
            .fetch_add(micros(slept) << 1, Ordering::Relaxed);
    }

    /// Marks the owning loop as about to block. From here until
    /// [`end_park`](Self::end_park) every [`snapshot`](Self::snapshot)
    /// counts the wait in progress as parked time, so an idle loop's
    /// duty cycle keeps falling instead of freezing at its last busy
    /// value. Single-writer: only the loop thread brackets its waits.
    pub fn begin_park(&self) {
        let delta = 1u64.wrapping_sub(clock_us() << 1);
        self.parked_us.fetch_add(delta, Ordering::Relaxed);
    }

    /// Closes the wait opened by [`begin_park`](Self::begin_park);
    /// `blocked` is false when the wait was skipped because work was
    /// already queued (not a park).
    pub fn end_park(&self, blocked: bool) {
        let delta = (clock_us() << 1).wrapping_sub(1);
        self.parked_us.fetch_add(delta, Ordering::Relaxed);
        if blocked {
            self.parks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one wake-from-park and its wake-to-first-poll latency.
    pub fn record_wake_latency(&self, latency: Duration) {
        let us = micros(latency);
        self.unparks.fetch_add(1, Ordering::Relaxed);
        self.wake_latency_us.fetch_add(us, Ordering::Relaxed);
        self.wake_latency_max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Sets the loss-aware submit-window gauge.
    pub fn set_paced_window(&self, n: u64) {
        self.paced_window.store(n, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Clock first: a wait that ends between the two reads must not
        // be extended past its real end.
        let now = clock_us();
        let mut s = self.load();
        let in_progress = if s.parked_us & 1 == 1 { now } else { 0 };
        s.parked_us = (s.parked_us >> 1).wrapping_add(in_progress) & (u64::MAX >> 1);
        s
    }
}

/// Microseconds on a process-wide monotonic clock — the time base of
/// [`MetricsBlock::begin_park`]'s stamp.
fn clock_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// The latency bucket holding `us` microseconds (see [`BUCKETS`]).
fn bucket_for(us: u64) -> usize {
    if us < BASE_US {
        return 0;
    }
    let idx = (64 - (us / BASE_US).leading_zeros()) as usize;
    idx.min(BUCKETS - 1)
}

/// Shared counters for one engine: one [`MetricsBlock`] per reactor
/// shard, merged on every read.
///
/// Writers pick their block via [`EngineMetrics::shard`]; the few
/// unsharded writers (the in-process transports and the pipelined
/// campaign) record into block 0 through the delegates below. Readers
/// see merged totals via [`EngineMetrics::snapshot`], or per-shard
/// series (labelled `shard="i"`) from the `Collector` impl; with one
/// block no `shard` label is added.
#[derive(Debug)]
pub struct EngineMetrics {
    blocks: Vec<Arc<MetricsBlock>>,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::with_shards(1)
    }
}

impl EngineMetrics {
    /// A single-block engine (the unsharded shape).
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// An engine with one zeroed block per shard.
    pub fn with_shards(shards: usize) -> Self {
        EngineMetrics {
            blocks: (0..shards.max(1))
                .map(|_| Arc::new(MetricsBlock::new()))
                .collect(),
        }
    }

    /// Number of per-shard blocks.
    pub fn shards(&self) -> usize {
        self.blocks.len()
    }

    /// The block for shard `i` — a reactor shard clones this once at
    /// launch and records into it without touching the other shards.
    ///
    /// # Panics
    ///
    /// If `i >= self.shards()`.
    pub fn shard(&self, i: usize) -> Arc<MetricsBlock> {
        Arc::clone(&self.blocks[i])
    }

    /// Snapshot of a single shard's block.
    ///
    /// # Panics
    ///
    /// If `i >= self.shards()`.
    pub fn shard_snapshot(&self, i: usize) -> MetricsSnapshot {
        self.blocks[i].snapshot()
    }

    /// Merged point-in-time copy across every shard. Counters and
    /// histograms sum; `loop_max_us` takes the slowest shard; the peak
    /// gauges sum per-shard peaks (an upper bound on the true global
    /// peak, since shards peak at different instants).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut merged = self.blocks[0].snapshot();
        for block in &self.blocks[1..] {
            merged.merge_from(&block.snapshot());
        }
        merged
    }

    /// Records one datagram sent (block 0 — unsharded writers).
    pub fn record_sent(&self) {
        self.blocks[0].record_sent();
    }

    /// Records one matched response, with its round-trip time.
    pub fn record_received(&self, rtt: Duration) {
        self.blocks[0].record_received(rtt);
    }

    /// Records a probe that ran out of attempts.
    pub fn record_timeout(&self) {
        self.blocks[0].record_timeout();
    }

    /// Sets the loss-aware submit-window gauge.
    pub fn set_paced_window(&self, n: u64) {
        self.blocks[0].set_paced_window(n);
    }
}

impl MetricsSnapshot {
    /// Observed datagram loss rate: unanswered sends over sends.
    /// Retransmissions count as sends, so this tracks *wire* loss, not
    /// probe-level failure.
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            1.0 - (self.received as f64 / self.sent as f64).min(1.0)
        }
    }

    /// Mean round-trip latency over all matched responses.
    pub fn mean_latency(&self) -> Option<Duration> {
        self.latency_sum_us
            .checked_div(self.latency_count)
            .map(Duration::from_micros)
    }

    /// Approximate latency quantile (`q` in `[0, 1]`) from the histogram:
    /// upper edge of the bucket containing the q-th response.
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        Self::quantile_from(&self.latency_buckets, self.latency_count, q)
    }

    /// Approximate reactor tick-latency quantile from the loop histogram.
    pub fn loop_latency_quantile(&self, q: f64) -> Option<Duration> {
        Self::quantile_from(&self.loop_buckets, self.loop_count, q)
    }

    fn quantile_from(buckets: &[u64; BUCKETS], total: u64, q: f64) -> Option<Duration> {
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Some(Duration::from_micros(BASE_US << i));
            }
        }
        Some(Duration::from_micros(BASE_US << (BUCKETS - 1)))
    }

    /// Replies dropped without matching a probe, for any reason.
    pub fn dropped_replies(&self) -> u64 {
        self.stray_replies + self.spoofed_replies + self.qname_mismatches
    }

    /// Mean reactor loop-iteration time.
    pub fn mean_loop_latency(&self) -> Option<Duration> {
        self.loop_sum_us
            .checked_div(self.loop_count)
            .map(Duration::from_micros)
    }

    /// Number of batched sends recorded.
    pub fn batches_sent(&self) -> u64 {
        self.batch_buckets.iter().sum()
    }

    /// Mean send-batch fill against a batch capacity of `max_batch`
    /// datagrams: 1.0 means every `sendmmsg` went out full.
    pub fn batch_fill_ratio(&self, max_batch: usize) -> Option<f64> {
        let batches = self.batches_sent();
        if batches == 0 || max_batch == 0 {
            return None;
        }
        Some(self.batch_datagrams as f64 / (batches * max_batch as u64) as f64)
    }

    /// Correlation-slab occupancy high-water mark as a fraction of
    /// capacity — how close the reactor came to saturating its slab.
    pub fn slab_fill_peak(&self) -> Option<f64> {
        if self.slab_capacity == 0 {
            return None;
        }
        Some(self.in_flight_peak as f64 / self.slab_capacity as f64)
    }

    /// Reactor duty cycle: loop time over loop-plus-parked time, in
    /// `[0, 1]`. `None` before any loop or park was recorded.
    pub fn duty_cycle(&self) -> Option<f64> {
        let total = self.loop_sum_us + self.parked_us;
        if total == 0 {
            return None;
        }
        Some(self.loop_sum_us as f64 / total as f64)
    }

    /// Mean wake-to-first-poll latency across all unparks.
    pub fn mean_wake_latency(&self) -> Option<Duration> {
        self.wake_latency_us
            .checked_div(self.unparks)
            .map(Duration::from_micros)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sent {}  received {}  timeouts {}  retries {}  decode errors {}",
            self.sent, self.received, self.timeouts, self.retries, self.decode_errors
        )?;
        writeln!(
            f,
            "rate-limit stalls {} (total wait {:?})  wire loss {:.2}%",
            self.rate_limit_stalls,
            Duration::from_micros(self.rate_limit_wait_us),
            self.loss_rate() * 100.0
        )?;
        writeln!(
            f,
            "in-flight {} (peak {})  dropped replies: {} stray, {} spoofed, {} id-collisions",
            self.in_flight,
            self.in_flight_peak,
            self.stray_replies,
            self.spoofed_replies,
            self.qname_mismatches
        )?;
        if self.loop_count > 0 {
            writeln!(
                f,
                "reactor: {} loops (mean {:?}, max {:?})  {} send batches",
                self.loop_count,
                self.mean_loop_latency().unwrap_or_default(),
                Duration::from_micros(self.loop_max_us),
                self.batches_sent()
            )?;
        }
        if self.parks > 0 {
            writeln!(
                f,
                "parking: {} parks / {} unparks  duty {:.1}%  wake mean {:?} max {:?}",
                self.parks,
                self.unparks,
                self.duty_cycle().unwrap_or_default() * 100.0,
                self.mean_wake_latency().unwrap_or_default(),
                Duration::from_micros(self.wake_latency_max_us)
            )?;
        }
        match (
            self.mean_latency(),
            self.latency_quantile(0.5),
            self.latency_quantile(0.99),
        ) {
            (Some(mean), Some(p50), Some(p99)) => {
                write!(f, "latency mean {mean:?}  p50 ≤ {p50:?}  p99 ≤ {p99:?}")
            }
            _ => write!(f, "latency: no samples"),
        }
    }
}

/// Cumulative Prometheus buckets from our exponential microsecond
/// histogram: bucket `i`'s upper edge is `BASE_US << i` µs, converted to
/// seconds. The open-ended top bucket is left to the implicit `+Inf`.
fn cumulative_seconds(buckets: &[u64; BUCKETS]) -> Vec<(f64, u64)> {
    let mut out = Vec::with_capacity(BUCKETS - 1);
    let mut cumulative = 0u64;
    for (i, &count) in buckets.iter().take(BUCKETS - 1).enumerate() {
        cumulative += count;
        out.push(((BASE_US << i) as f64 / 1e6, cumulative));
    }
    out
}

/// Pushes every exported family for one snapshot. `shard` of `None`
/// emits unlabelled series (the single-shard shape); `Some(i)` tags
/// every series with `shard="i"`.
fn collect_snapshot(s: &MetricsSnapshot, shard: Option<u64>, out: &mut Vec<Metric>) {
    let label = |m: Metric| match shard {
        Some(i) => m.with_label("shard", i.to_string()),
        None => m,
    };
    s.collect_into(label, out);
    for (reason, count) in [
        ("stray", s.stray_replies),
        ("spoofed", s.spoofed_replies),
        ("duplicate", s.qname_mismatches),
    ] {
        out.push(label(
            Metric::counter(
                "cde_engine_dropped_replies_total",
                "Replies dropped without completing a probe, by reason",
                count,
            )
            .with_label("reason", reason),
        ));
    }
    out.push(label(Metric::gauge(
        "cde_engine_duty_cycle",
        "Reactor loop time over loop-plus-parked time (1.0 = never idle)",
        s.duty_cycle().unwrap_or(0.0),
    )));
    out.push(label(Metric::histogram(
        "cde_engine_probe_rtt_seconds",
        "Round-trip time of matched probes",
        cumulative_seconds(&s.latency_buckets),
        s.latency_sum_us as f64 / 1e6,
        s.latency_count,
    )));
    out.push(label(Metric::histogram(
        "cde_engine_loop_tick_seconds",
        "Reactor loop-iteration latency",
        cumulative_seconds(&s.loop_buckets),
        s.loop_sum_us as f64 / 1e6,
        s.loop_count,
    )));
    let mut batch_cumulative = Vec::with_capacity(BATCH_BUCKETS - 1);
    let mut seen = 0u64;
    for (i, &count) in s.batch_buckets.iter().take(BATCH_BUCKETS - 1).enumerate() {
        seen += count;
        batch_cumulative.push((((1u64 << (i + 1)) - 1) as f64, seen));
    }
    out.push(label(Metric::histogram(
        "cde_engine_send_batch_size",
        "Datagrams per batched send",
        batch_cumulative,
        s.batch_datagrams as f64,
        s.batches_sent(),
    )));
}

impl Collector for EngineMetrics {
    fn collect(&self, out: &mut Vec<Metric>) {
        if self.blocks.len() == 1 {
            collect_snapshot(&self.blocks[0].snapshot(), None, out);
        } else {
            for (i, block) in self.blocks.iter().enumerate() {
                collect_snapshot(&block.snapshot(), Some(i as u64), out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsBlock::new();
        m.record_sent();
        m.record_sent();
        m.record_received(Duration::from_micros(300));
        m.record_retry();
        m.record_timeout();
        m.record_rate_limit_stall(Duration::from_millis(2));
        m.record_decode_error();
        let s = m.snapshot();
        assert_eq!(s.sent, 2);
        assert_eq!(s.received, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.rate_limit_stalls, 1);
        assert_eq!(s.decode_errors, 1);
        assert_eq!(s.rate_limit_wait_us, 2_000);
        assert!((s.loss_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reactor_counters_accumulate() {
        let m = MetricsBlock::new();
        m.set_in_flight(5);
        m.set_in_flight(9);
        m.set_in_flight(2);
        m.record_stray_reply();
        m.record_spoofed_reply();
        m.record_qname_mismatch();
        m.record_qname_mismatch();
        m.record_send_batch(1);
        m.record_send_batch(7);
        m.record_send_batch(32);
        m.record_send_batch(0); // ignored
        m.record_loop_iteration(Duration::from_micros(100));
        m.record_loop_iteration(Duration::from_micros(300));
        m.record_recv_batch(5);
        m.record_recv_batch(0);
        m.record_recv_batch(32);
        let s = m.snapshot();
        assert_eq!((s.recv_calls, s.recv_empty), (3, 1));
        assert_eq!(s.in_flight, 2);
        assert_eq!(s.in_flight_peak, 9);
        assert_eq!(s.stray_replies, 1);
        assert_eq!(s.spoofed_replies, 1);
        assert_eq!(s.qname_mismatches, 2);
        assert_eq!(s.dropped_replies(), 4);
        assert_eq!(s.batches_sent(), 3);
        assert_eq!(s.batch_buckets[0], 1); // batch of 1
        assert_eq!(s.batch_buckets[2], 1); // batch of 7 → [4, 8)
        assert_eq!(s.batch_buckets[5], 1); // batch of 32
        assert_eq!(s.loop_count, 2);
        assert_eq!(s.mean_loop_latency(), Some(Duration::from_micros(200)));
        assert_eq!(s.loop_max_us, 300);
    }

    #[test]
    fn histogram_buckets_are_monotone() {
        let m = EngineMetrics::new();
        for us in [1u64, 20, 100, 1_000, 10_000, 100_000, 1_000_000] {
            m.record_received(Duration::from_micros(us));
        }
        let s = m.snapshot();
        assert_eq!(s.latency_count, 7);
        let p50 = s.latency_quantile(0.5).unwrap();
        let p99 = s.latency_quantile(0.99).unwrap();
        assert!(p50 <= p99);
        assert!(s.mean_latency().unwrap() > Duration::from_micros(100));
    }

    /// Bucket 0 is `[0, BASE_US)`, bucket `i` is `[BASE_US << (i - 1),
    /// BASE_US << i)`, the top bucket is open: every value lands below
    /// its bucket's exported `le` edge and at or above the one before.
    #[test]
    fn bucket_for_matches_exported_le_edges() {
        let edges: Vec<f64> = cumulative_seconds(&[0; BUCKETS])
            .iter()
            .map(|&(le, _)| le)
            .collect();
        let top = BASE_US << (BUCKETS - 2);
        let values = [0, 15, 16, 31, 32, top - 1, top, u64::MAX];
        let buckets = [0, 0, 1, 1, 2, BUCKETS - 2, BUCKETS - 1, BUCKETS - 1];
        for (us, bucket) in values.into_iter().zip(buckets) {
            assert_eq!(bucket_for(us), bucket, "{us} µs");
            let secs = us as f64 / 1e6;
            if let Some(&le) = edges.get(bucket) {
                assert!(secs < le, "{us} µs not below le={le}");
            }
            if bucket > 0 {
                assert!(secs >= edges[bucket - 1], "{us} µs below bucket {bucket}");
            }
        }
    }

    #[test]
    fn quantiles_cover_edges() {
        let m = EngineMetrics::new();
        assert_eq!(m.snapshot().latency_quantile(0.5), None);
        m.record_received(Duration::from_micros(64));
        let s = m.snapshot();
        assert!(s.latency_quantile(0.0).is_some());
        assert!(s.latency_quantile(1.0).is_some());
    }

    #[test]
    fn health_gauges_and_ratios() {
        let m = MetricsBlock::new();
        m.set_slab_capacity(1000);
        m.set_in_flight(250);
        m.set_wheel_pending(40);
        m.set_wheel_pending(10);
        m.record_send_batch(16);
        m.record_send_batch(32);
        m.record_loop_iteration(Duration::from_micros(50));
        let s = m.snapshot();
        assert_eq!(s.wheel_pending, 10);
        assert_eq!(s.wheel_pending_peak, 40);
        assert_eq!(s.slab_capacity, 1000);
        assert_eq!(s.slab_fill_peak(), Some(0.25));
        // 48 datagrams over 2 batches of capacity 32 → 0.75 fill.
        assert_eq!(s.batch_fill_ratio(32), Some(0.75));
        assert!(s.loop_latency_quantile(0.5).is_some());
        assert_eq!(EngineMetrics::new().snapshot().batch_fill_ratio(32), None);
        assert_eq!(EngineMetrics::new().snapshot().slab_fill_peak(), None);
    }

    #[test]
    fn display_always_reports_drop_counters() {
        let m = MetricsBlock::new();
        let quiet = m.snapshot().to_string();
        assert!(quiet.contains("0 stray, 0 spoofed, 0 id-collisions"));
        m.record_stray_reply();
        m.record_spoofed_reply();
        m.record_qname_mismatch();
        let busy = m.snapshot().to_string();
        assert!(busy.contains("1 stray, 1 spoofed, 1 id-collisions"));
    }

    #[test]
    fn collector_exports_families() {
        let m = EngineMetrics::new();
        let block = m.shard(0);
        block.record_sent();
        block.record_received(Duration::from_micros(500));
        block.record_stray_reply();
        block.set_slab_capacity(64);
        block.set_wheel_pending(3);
        let mut metrics = Vec::new();
        m.collect(&mut metrics);
        let find = |name: &str| metrics.iter().find(|x| x.name == name);
        assert!(matches!(
            find("cde_engine_sent_total").unwrap().value,
            cde_telemetry::MetricValue::Counter(1)
        ));
        let dropped: Vec<_> = metrics
            .iter()
            .filter(|x| x.name == "cde_engine_dropped_replies_total")
            .collect();
        assert_eq!(dropped.len(), 3);
        assert!(dropped.iter().any(|x| {
            x.labels == vec![("reason", "stray".to_string())]
                && matches!(x.value, cde_telemetry::MetricValue::Counter(1))
        }));
        match &find("cde_engine_probe_rtt_seconds").unwrap().value {
            cde_telemetry::MetricValue::Histogram {
                buckets,
                sum,
                count,
            } => {
                assert_eq!(*count, 1);
                assert!((sum - 0.0005).abs() < 1e-9);
                // Buckets are cumulative and end below the open top edge.
                assert_eq!(buckets.len(), BUCKETS - 1);
                assert_eq!(buckets.last().unwrap().1, 1);
                assert!(buckets
                    .windows(2)
                    .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        let wheel = find("cde_engine_wheel_pending").unwrap();
        assert!(matches!(wheel.value, cde_telemetry::MetricValue::Gauge(v) if v == 3.0));
    }

    #[test]
    fn shared_across_threads() {
        let m = Arc::new(EngineMetrics::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    m.record_sent();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.snapshot().sent, 4000);
    }

    #[test]
    fn shard_runtime_counters_accumulate() {
        let m = MetricsBlock::new();
        m.set_ring_depth(10);
        m.set_ring_depth(40);
        m.set_ring_depth(5);
        m.record_park(Duration::from_micros(800));
        m.record_park(Duration::from_micros(200));
        m.record_wake_latency(Duration::from_micros(30));
        m.record_wake_latency(Duration::from_micros(90));
        m.record_loop_iteration(Duration::from_micros(1000));
        let s = m.snapshot();
        assert_eq!(s.ring_depth, 5);
        assert_eq!(s.ring_depth_peak, 40);
        assert_eq!(s.parks, 2);
        assert_eq!(s.parked_us, 1000);
        assert_eq!(s.unparks, 2);
        assert_eq!(s.wake_latency_us, 120);
        assert_eq!(s.wake_latency_max_us, 90);
        assert_eq!(s.mean_wake_latency(), Some(Duration::from_micros(60)));
        // 1000 µs busy vs 1000 µs parked → 50% duty.
        assert!((s.duty_cycle().unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(EngineMetrics::new().snapshot().duty_cycle(), None);
        let text = s.to_string();
        assert!(text.contains("2 parks / 2 unparks"), "{text}");
    }

    #[test]
    fn snapshot_mid_wait_counts_the_wait_in_progress() {
        let block = MetricsBlock::new();
        block.record_loop_iteration(Duration::from_micros(1000));
        block.record_park(Duration::from_micros(1000));
        block.begin_park();
        let early = block.snapshot();
        std::thread::sleep(Duration::from_millis(5));
        let mid = block.snapshot();
        // Still blocked: no park has *finished*, yet the time shows.
        assert_eq!(mid.parks, 1);
        assert!(early.parked_us >= 1000);
        assert!(
            mid.parked_us >= early.parked_us + 5000,
            "parked_us stood still during the wait: {} → {}",
            early.parked_us,
            mid.parked_us
        );
        assert!(mid.duty_cycle().unwrap() < early.duty_cycle().unwrap());
        block.end_park(true);
        let done = block.snapshot();
        assert_eq!(done.parks, 2);
        assert!(done.parked_us >= mid.parked_us);
        // Back in the loop: the total stops advancing.
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(block.snapshot().parked_us, done.parked_us);
        // A wait skipped for queued work is not a park.
        block.begin_park();
        block.end_park(false);
        assert_eq!(block.snapshot().parks, 2);
    }

    #[test]
    fn shard_runtime_series_are_exported() {
        let m = EngineMetrics::new();
        let block = m.shard(0);
        block.set_ring_depth(7);
        block.record_park(Duration::from_micros(100));
        block.record_wake_latency(Duration::from_micros(25));
        let mut metrics = Vec::new();
        m.collect(&mut metrics);
        let find = |name: &str| metrics.iter().find(|x| x.name == name);
        assert!(matches!(
            find("cde_engine_ring_depth").unwrap().value,
            cde_telemetry::MetricValue::Gauge(v) if v == 7.0
        ));
        assert!(matches!(
            find("cde_engine_parks_total").unwrap().value,
            cde_telemetry::MetricValue::Counter(1)
        ));
        assert!(matches!(
            find("cde_engine_unparks_total").unwrap().value,
            cde_telemetry::MetricValue::Counter(1)
        ));
        assert!(matches!(
            find("cde_engine_wake_latency_us_total").unwrap().value,
            cde_telemetry::MetricValue::Counter(25)
        ));
        assert!(find("cde_engine_duty_cycle").is_some());
        assert!(find("cde_engine_ring_depth_peak").is_some());
        assert!(find("cde_engine_parked_us_total").is_some());
        assert!(find("cde_engine_wake_latency_max_us").is_some());
    }

    /// Merge-on-read under fire: writers hammer every shard block while
    /// a reader snapshots; merged counters must never move backwards and
    /// must land exactly on the expected totals.
    #[test]
    fn merged_snapshot_is_monotonic_under_concurrent_writers() {
        const SHARDS: usize = 4;
        const PER_SHARD: u64 = 20_000;
        let m = Arc::new(EngineMetrics::with_shards(SHARDS));
        let writers: Vec<_> = (0..SHARDS)
            .map(|i| {
                let block = m.shard(i);
                std::thread::spawn(move || {
                    for n in 0..PER_SHARD {
                        block.record_sent();
                        block.record_received(Duration::from_micros(100));
                        block.set_ring_depth(n % 64);
                        if n % 8 == 0 {
                            block.record_park(Duration::from_micros(10));
                            block.record_wake_latency(Duration::from_micros(5));
                        }
                    }
                })
            })
            .collect();
        let reader = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let mut last = m.snapshot();
                for _ in 0..500 {
                    let s = m.snapshot();
                    assert!(s.sent >= last.sent);
                    assert!(s.received >= last.received);
                    assert!(s.parks >= last.parks);
                    assert!(s.unparks >= last.unparks);
                    assert!(s.parked_us >= last.parked_us);
                    assert!(s.wake_latency_us >= last.wake_latency_us);
                    assert!(s.ring_depth_peak >= last.ring_depth_peak);
                    assert!(s.latency_count >= last.latency_count);
                    last = s;
                    std::thread::yield_now();
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        let s = m.snapshot();
        assert_eq!(s.sent, SHARDS as u64 * PER_SHARD);
        assert_eq!(s.received, SHARDS as u64 * PER_SHARD);
        assert_eq!(s.parks, SHARDS as u64 * PER_SHARD / 8);
        assert_eq!(s.parks, s.unparks);
        assert_eq!(s.ring_depth_peak, SHARDS as u64 * 63);
    }

    #[test]
    fn sharded_snapshot_merges_blocks() {
        let m = EngineMetrics::with_shards(3);
        assert_eq!(m.shards(), 3);
        for i in 0..3 {
            let block = m.shard(i);
            for _ in 0..=i {
                block.record_sent();
                block.record_received(Duration::from_micros(100 * (i as u64 + 1)));
            }
            block.set_in_flight((i as u64 + 1) * 10);
            block.record_loop_iteration(Duration::from_micros(50 * (i as u64 + 1)));
            block.set_slab_capacity(100);
        }
        let s = m.snapshot();
        assert_eq!(s.sent, 6);
        assert_eq!(s.received, 6);
        assert_eq!(s.latency_count, 6);
        assert_eq!(s.latency_sum_us, 100 + 2 * 200 + 3 * 300);
        assert_eq!(s.in_flight, 10 + 20 + 30);
        assert_eq!(s.in_flight_peak, 60, "peaks sum as an upper bound");
        assert_eq!(s.loop_count, 3);
        assert_eq!(s.loop_max_us, 150);
        assert_eq!(s.slab_capacity, 300);
        // Per-shard view stays addressable.
        assert_eq!(m.shard_snapshot(2).sent, 3);
        assert_eq!(m.shard_snapshot(0).in_flight, 10);
    }

    #[test]
    fn merged_snapshot_equals_single_block_totals() {
        // The same workload recorded into 1 block vs spread over 4
        // blocks must merge to identical totals (gauge peaks aside —
        // here each shard peaks once, so the sums agree too).
        let single = MetricsBlock::new();
        let sharded = EngineMetrics::with_shards(4);
        for i in 0..40u64 {
            let rtt = Duration::from_micros(100 + i * 13);
            single.record_sent();
            single.record_received(rtt);
            if i % 5 == 0 {
                single.record_retry();
            }
            let block = sharded.shard((i % 4) as usize);
            block.record_sent();
            block.record_received(rtt);
            if i % 5 == 0 {
                block.record_retry();
            }
        }
        let a = single.snapshot();
        let b = sharded.snapshot();
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.received, b.received);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.latency_sum_us, b.latency_sum_us);
        assert_eq!(a.latency_buckets, b.latency_buckets);
    }

    #[test]
    fn collector_labels_shards_when_sharded() {
        let m = EngineMetrics::with_shards(2);
        m.shard(0).record_sent();
        m.shard(1).record_sent();
        m.shard(1).record_sent();
        let mut metrics = Vec::new();
        m.collect(&mut metrics);
        let sent: Vec<_> = metrics
            .iter()
            .filter(|x| x.name == "cde_engine_sent_total")
            .collect();
        assert_eq!(sent.len(), 2);
        for metric in &sent {
            assert!(metric.labels.iter().any(|(k, _)| *k == "shard"));
        }
        let shard1 = sent
            .iter()
            .find(|x| x.labels.contains(&("shard", "1".to_string())))
            .unwrap();
        assert!(matches!(
            shard1.value,
            cde_telemetry::MetricValue::Counter(2)
        ));
        // Labelled families keep their secondary labels too.
        assert!(metrics.iter().any(|x| {
            x.name == "cde_engine_dropped_replies_total"
                && x.labels.contains(&("reason", "stray".to_string()))
                && x.labels.iter().any(|(k, _)| *k == "shard")
        }));
        // Single-block engines stay label-free (golden stability).
        let mut unsharded = Vec::new();
        EngineMetrics::new().collect(&mut unsharded);
        assert!(unsharded
            .iter()
            .filter(|x| x.name == "cde_engine_sent_total")
            .all(|x| x.labels.is_empty()));
    }
}
