//! **cde-engine** — the live wire-level measurement engine.
//!
//! Everything else in this workspace drives *simulated* resolution
//! platforms through `cde-netsim`'s virtual time. This crate adds the
//! missing layer for the paper's actual modus operandi — an
//! Internet-facing measurement system — while staying hermetic:
//!
//! * [`transport`] — the [`Transport`] abstraction
//!   plus [`EngineAccess`], which aims a transport at one ingress as a
//!   `cde-core` `AccessChannel`, so the enumeration and timing
//!   techniques run unchanged over the wire.
//! * [`sim`] — [`SimTransport`]: the same interface
//!   over an in-process `cde-platform::ResolutionPlatform`.
//! * [`authority`] — [`WireAuthority`]: a
//!   loopback UDP authoritative nameserver farm serving the `CdeInfra`
//!   zones (honey records, CNAME farm, delegated subzone) with
//!   `cde-dns` wire encoding, recording observed sources.
//! * [`resolver`] — [`LoopbackResolver`]: a
//!   loopback recursive-resolver shim backed by a simulated cache
//!   platform, with injectable loss, for hermetic end-to-end tests.
//! * [`reactor`] — the sharded event-driven probe
//!   [`Reactor`]: one event loop per core, each
//!   multiplexing thousands of in-flight probes over its own
//!   non-blocking sockets, with a correlation table (query-id / source /
//!   question validation against spoofed and stray replies), a
//!   hierarchical timer wheel for deadlines and retransmits, batched
//!   `sendmmsg`/`recvmmsg` syscalls via `cde-sysio`, and pooled
//!   zero-alloc encodings. Probes are partitioned across shards by a
//!   stable hash of the target ingress
//!   ([`shard_for_target`]), submitted over
//!   per-shard lock-free rings, and the per-shard metrics blocks merge
//!   on snapshot; [`ReactorTransport`]
//!   is its one-probe-at-a-time [`Transport`] seam
//!   and the engine's only live transport.
//!   With [`ReactorConfig::insight`]
//!   set, the loops additionally feed per-target `cde-insight` RTT
//!   digests at reply-match time and sample wall-clock timers around
//!   the six hot-path phases (timers, encode, send-batch, recv-batch,
//!   decode, correlate) — the capture tier of the §IV-B3 latency side
//!   channel.
//! * [`rto`] — [`RtoTable`]: per-ingress adaptive
//!   retransmission timeouts (the RFC 6298 estimator from `cde-insight`
//!   in atomic cells). With
//!   [`ReactorConfig::adaptive`] set,
//!   the shard loops arm learned deadlines instead of the static
//!   [`RetryPolicy`] schedule (which remains the
//!   upper bound), so lossy-path campaigns stop paying worst-case
//!   retransmit budgets.
//! * [`scheduler`] — campaign execution:
//!   [`PipelinedCampaign`] streams probes
//!   through a reactor with a bounded, loss-paced window, and its
//!   [`CampaignReport`] feeds the observed
//!   loss back into `cde-core::planner`.
//! * [`timer`] — [`TimerWheel`]: the hierarchical
//!   timing wheel backing the reactor's deadlines, with O(1)
//!   cancellation by [`TimerKey`].
//! * [`bufpool`] — [`BufferPool`]: recycled probe
//!   encodings for the reactor's alloc-free hot path.
//! * [`metrics`] — [`EngineMetrics`]: atomic
//!   counters, latency and reactor-tick histograms, and in-loop health
//!   gauges (timer-wheel depth, slab occupancy, send-batch fill) with a
//!   `snapshot()` API; implements `cde-telemetry`'s `Collector`, so one
//!   `registry.register(reactor.metrics())` exposes everything over
//!   Prometheus text or JSON. Probe lifecycle events (`planned → sent →
//!   retried → matched | timed_out`, plus drop reasons) stream through a
//!   `cde_telemetry::TelemetryHub`; see `ReactorConfig::{telemetry,
//!   registry}` and `PipelinedCampaign::named`.
//! * [`testbed`] — [`LiveTestbed`]: the whole live
//!   chain (transport → resolver → authority) launched on loopback in
//!   one call.
//! * [`faulty`] — [`FaultyAccess`]: any `cde-core` `AccessChannel`
//!   (direct, SMTP or ad-network) wrapped in a deterministic
//!   `cde-faults::FaultPlan` (bursty loss, duplication, delay spikes,
//!   REFUSED rate limiting); the reactor additionally wears plans
//!   natively at its socket seam ([`ReactorConfig::faults`]) for
//!   live-loopback chaos.
//! * [`flight`] — [`FlightRecorder`]: the
//!   always-on black box. With
//!   [`ReactorConfig::flight`] set, each
//!   shard loop writes a bounded seqlock ring of full-fidelity probe
//!   lifecycle records (send/match/expiry timestamps, RTO used,
//!   disposition, wire size, query id) plus per-datagram fault-layer
//!   wire observations, drop-oldest with exact shed accounting. Dump
//!   triggers snapshot it to a versioned JSONL artifact that
//!   `cde-analyze --forensics` reconciles into a per-ingress fate table
//!   (query-lost vs reply-lost vs matched-late-as-stray).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authority;
pub mod bufpool;
pub mod clock;
pub mod faulty;
pub mod flight;
pub mod metrics;
mod mulhash;
pub mod ratelimit;
pub mod reactor;
pub mod resolver;
pub mod retry;
pub mod rto;
pub mod scheduler;
mod shard;
pub mod sim;
pub mod testbed;
pub mod timer;
pub mod transport;

pub use authority::WireAuthority;
pub use bufpool::{BufferPool, PoolStats};
/// Datagrams per `sendmmsg`/`recvmmsg` syscall — the denominator for
/// [`MetricsSnapshot::batch_fill_ratio`](metrics::MetricsSnapshot::batch_fill_ratio).
pub use cde_sysio::MAX_BATCH;
pub use clock::EngineClock;
pub use faulty::FaultyAccess;
pub use flight::{FlightDisposition, FlightOptions, FlightRecord, FlightRecorder, FlightRing};
pub use metrics::{EngineMetrics, MetricsBlock, MetricsSnapshot};
pub use ratelimit::{RateConfig, RateLimiter, TenantRate, WeightedRateLimiter};
pub use reactor::{
    shard_for_target, InsightOptions, ProbeCompletion, PulseOptions, Reactor, ReactorConfig,
    ReactorHandle, ReactorInsight, ReactorTransport, ShardedReactor,
};
pub use resolver::{LoopbackResolver, ResolverConfig};
pub use retry::RetryPolicy;
pub use rto::{AdaptiveRtoConfig, RtoTable};
pub use scheduler::{
    run_campaign_pipelined, run_campaign_pipelined_reported, CampaignReport, PipelinedCampaign,
    Probe, ProbeOutcome,
};
pub use sim::SimTransport;
pub use testbed::LiveTestbed;
pub use timer::{TimerKey, TimerWheel};
pub use transport::{EngineAccess, Transport, TransportReply};
