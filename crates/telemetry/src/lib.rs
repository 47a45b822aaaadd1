//! **cde-telemetry** — observability for the measurement stack, with no
//! external tracing or metrics dependency.
//!
//! The paper's CDE measurements live or die on operational judgment
//! calls: was a low cache estimate a real small platform, or packet
//! loss, or the rate limiter stalling the burst? Answering that needs
//! two complementary views, both provided here:
//!
//! * **Events** ([`event`], [`ring`], [`hub`]) — a structured
//!   event/span stream: campaign spans (`begin` / `progress` / `note` /
//!   `end`) and per-probe lifecycle events (`planned → sent → retried →
//!   matched | timed_out`, plus `reply_dropped` with the engine's
//!   stray/spoofed/duplicate taxonomy). Events are `Copy`, emission is
//!   non-blocking, and the ring sheds **oldest** events under
//!   backpressure with an exact shed counter — telemetry can never
//!   stall a probe.
//! * **Metrics** ([`registry`], [`prometheus`]) — a pull-model
//!   [`MetricsRegistry`] that components register [`Collector`]s into,
//!   exported as the Prometheus text format or a JSON snapshot.
//! * **Counter tables** ([`counter_block!`]) — a component declares its
//!   atomic counters once, one row each (fold, exported family, HELP
//!   text, increment method), and gets the atomic block, its snapshot,
//!   the cross-block merge and the [`Collector`] rows generated from
//!   that single table.
//!
//! Binaries install a process-wide hub via [`install_global`]; library
//! code emits through [`global`], which is a no-op until then.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
pub mod event;
pub mod hub;
pub mod json;
pub mod prometheus;
pub mod registry;
pub mod report;
pub mod ring;

pub use event::{DropReason, Event, EventKind};
pub use hub::{global, install_global, CampaignSpan, TelemetryHub, DEFAULT_RING_CAPACITY};
pub use json::strip_at_us;
pub use registry::{Collector, Metric, MetricValue, MetricsRegistry};
pub use report::ProgressReporter;
pub use ring::EventRing;
