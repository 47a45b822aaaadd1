//! The telemetry hub: where emitters meet the drain.
//!
//! A [`TelemetryHub`] owns the event ring, the epoch all timestamps are
//! relative to, and the campaign-id allocator. It is designed to sit
//! behind an `Arc` shared by every layer of a measurement stack — the
//! reactor emits probe lifecycle events into it, campaign drivers open
//! [`CampaignSpan`]s, and one drainer periodically pulls JSONL out.
//!
//! A **disabled** hub (the default global) reduces every emit to a single
//! branch, so instrumented code pays nothing when nobody is listening.
//! Mirroring `tracing`'s global-subscriber shape (without the
//! dependency), [`install_global`] lets binaries opt whole-process
//! instrumentation in; library code reaches the hub via [`global`].

use crate::event::{Event, EventKind};
use crate::registry::{Collector, Metric};
use crate::ring::{EventRing, DRAIN_CHUNK};
use parking_lot::{Mutex, RwLock};
use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Default ring capacity for [`TelemetryHub::new`] callers that do not
/// care: a 10k-probe campaign window's worth of lifecycle events.
pub const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

/// Shared event hub. See the module docs.
#[derive(Debug)]
pub struct TelemetryHub {
    ring: EventRing,
    /// The drain's reused buffers; only drainers take this lock.
    drain: Mutex<DrainBuffers>,
    epoch: Instant,
    enabled: bool,
    next_campaign: AtomicU32,
}

impl TelemetryHub {
    /// An enabled hub with a ring of `capacity` events.
    pub fn new(capacity: usize) -> Arc<TelemetryHub> {
        Arc::new(TelemetryHub {
            ring: EventRing::new(capacity),
            drain: Mutex::new(DrainBuffers::default()),
            epoch: Instant::now(),
            enabled: true,
            next_campaign: AtomicU32::new(1),
        })
    }

    /// A no-op hub: every emit is a branch and nothing is stored.
    pub fn disabled() -> Arc<TelemetryHub> {
        Arc::new(TelemetryHub {
            ring: EventRing::new(1),
            drain: Mutex::new(DrainBuffers::default()),
            epoch: Instant::now(),
            enabled: false,
            next_campaign: AtomicU32::new(1),
        })
    }

    /// `true` when events are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since this hub's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Emits one event tagged with `campaign` (0 = no span). Non-blocking;
    /// sheds oldest under backpressure.
    pub fn emit(&self, campaign: u32, kind: EventKind) {
        if !self.enabled {
            return;
        }
        self.ring
            .push(self.event_at(Instant::now(), campaign, kind));
    }

    /// An event stamped at `at` on this hub's time base, for an emitter
    /// that reads the clock once for many events and hands them over in
    /// one [`emit_all`](Self::emit_all). An `at` before the epoch reads
    /// as 0.
    pub fn event_at(&self, at: Instant, campaign: u32, kind: EventKind) -> Event {
        Event {
            at_us: at
                .saturating_duration_since(self.epoch)
                .as_micros()
                .min(u128::from(u64::MAX)) as u64,
            campaign,
            kind,
        }
    }

    /// Emits every event of `events`, in order, under one lock of the
    /// ring, and leaves `events` empty for reuse. Same drop-oldest
    /// accounting as [`emit`](Self::emit); never blocks on the drain.
    pub fn emit_all(&self, events: &mut Vec<Event>) {
        if self.enabled {
            self.ring.push_all(events);
        } else {
            events.clear();
        }
    }

    /// Opens a campaign span: emits `campaign_begin` and returns the span
    /// handle that will emit `campaign_end` when closed (or dropped).
    pub fn begin_campaign(self: &Arc<Self>, name: &'static str, planned: u64) -> CampaignSpan {
        let id = self.next_campaign.fetch_add(1, Ordering::Relaxed);
        self.emit(id, EventKind::CampaignBegin { name, planned });
        CampaignSpan {
            hub: Arc::clone(self),
            id,
            completed: 0,
            answered: 0,
            timeouts: 0,
            ended: false,
        }
    }

    /// The one drain loop behind every drain of this hub. Moves queued
    /// events out oldest first, at most [`DRAIN_CHUNK`] per ring lock,
    /// into a buffer the hub reuses, and hands each chunk to `each`; with
    /// a `jsonl` writer it also renders the chunk into a reused text
    /// buffer and writes it there, before it takes the next chunk. If
    /// events were shed since the previous drain, one
    /// [`EventKind::EventsDropped`] record follows as a last chunk of its
    /// own, so the stream itself shows the loss.
    ///
    /// Emitters wait at most for one chunk's move, never for rendering
    /// or I/O. A drain holds one chunk and its rendering, whatever the
    /// interval between drains, and a warm one allocates nothing. It
    /// stops after about the ring's capacity of events, so emitters
    /// outpacing it cannot keep it going: the rest waits for the next.
    /// Drains of one hub run one at a time (`each` must not drain this
    /// hub again). Returns the events handed over, the loss record
    /// included. On a write error the chunk being written is lost and
    /// the events behind it stay queued.
    pub fn drain_chunks(
        &self,
        mut jsonl: Option<&mut dyn io::Write>,
        mut each: impl FnMut(&[Event]),
    ) -> io::Result<usize> {
        let mut buffers = self.drain.lock();
        let DrainBuffers { chunk, text } = &mut *buffers;
        let mut hand_over = |chunk: &[Event]| -> io::Result<()> {
            each(chunk);
            if let Some(w) = jsonl.as_mut() {
                text.clear();
                for ev in chunk {
                    ev.write_jsonl(text);
                }
                w.write_all(text)?;
            }
            Ok(())
        };
        let mut moved = 0;
        loop {
            chunk.clear();
            let n = self.ring.drain_chunk(chunk);
            if n == 0 {
                break;
            }
            hand_over(chunk)?;
            moved += n;
            if n < DRAIN_CHUNK || moved >= self.ring.capacity() {
                break;
            }
        }
        let shed = self.ring.take_dropped();
        if shed > 0 {
            chunk.clear();
            chunk.push(Event {
                at_us: self.now_us(),
                campaign: 0,
                kind: EventKind::EventsDropped { count: shed },
            });
            hand_over(chunk)?;
            moved += 1;
        }
        Ok(moved)
    }

    /// Drains queued events (oldest first) onto the end of `out`,
    /// through [`drain_chunks`](Self::drain_chunks).
    pub fn drain_into(&self, out: &mut Vec<Event>) {
        self.drain_chunks(None, |chunk| out.extend_from_slice(chunk))
            .expect("a drain without a writer does no I/O");
    }

    /// Drains queued events and returns them.
    pub fn drain(&self) -> Vec<Event> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Drains queued events as JSONL into `w`, one write per chunk,
    /// through [`drain_chunks`](Self::drain_chunks). Returns lines
    /// written.
    pub fn drain_jsonl<W: io::Write>(&self, w: &mut W) -> io::Result<usize> {
        self.drain_chunks(Some(w), |_| {})
    }

    /// Total events emitted into this hub.
    pub fn emitted(&self) -> u64 {
        self.ring.emitted()
    }

    /// Total events shed by the ring (drop-oldest backpressure).
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Events currently queued awaiting a drain.
    pub fn queued(&self) -> usize {
        self.ring.len()
    }
}

/// What a drain reuses from one drain to the next: a chunk of events and
/// its JSONL rendering.
#[derive(Default)]
struct DrainBuffers {
    chunk: Vec<Event>,
    text: Vec<u8>,
}

impl std::fmt::Debug for DrainBuffers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrainBuffers")
            .field("chunk_capacity", &self.chunk.capacity())
            .field("text_capacity", &self.text.capacity())
            .finish()
    }
}

/// A hub exports its own health: emitted/dropped totals and the current
/// queue depth, so telemetry loss is itself observable.
impl Collector for TelemetryHub {
    fn collect(&self, out: &mut Vec<Metric>) {
        out.push(Metric::counter(
            "cde_telemetry_events_emitted_total",
            "Events emitted into the telemetry ring",
            self.emitted(),
        ));
        out.push(Metric::counter(
            "cde_telemetry_events_dropped_total",
            "Events shed by the ring under backpressure (drop-oldest)",
            self.dropped(),
        ));
        out.push(Metric::gauge(
            "cde_telemetry_queue_depth",
            "Events queued awaiting a drain",
            self.queued() as f64,
        ));
    }
}

/// An open campaign span. Emit progress through it as the campaign runs;
/// closing it (explicitly via [`CampaignSpan::end`], or implicitly on
/// drop) emits `campaign_end` with the last reported totals.
#[derive(Debug)]
pub struct CampaignSpan {
    hub: Arc<TelemetryHub>,
    id: u32,
    completed: u64,
    answered: u64,
    timeouts: u64,
    ended: bool,
}

impl CampaignSpan {
    /// An already-ended span on a disabled hub: emits nothing, ever.
    /// Useful as a placeholder when moving a span out of a struct field
    /// to [`CampaignSpan::end`] it.
    pub fn detached() -> CampaignSpan {
        CampaignSpan {
            hub: TelemetryHub::disabled(),
            id: 0,
            completed: 0,
            answered: 0,
            timeouts: 0,
            ended: true,
        }
    }

    /// The span id tagged onto its events.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The hub this span emits into.
    pub fn hub(&self) -> &Arc<TelemetryHub> {
        &self.hub
    }

    /// Emits a `campaign_progress` event and remembers the totals for
    /// the final `campaign_end`.
    pub fn progress(&mut self, submitted: u64, completed: u64, answered: u64, in_flight: u64) {
        self.completed = completed;
        self.answered = answered;
        self.timeouts = completed.saturating_sub(answered);
        self.hub.emit(
            self.id,
            EventKind::CampaignProgress {
                submitted,
                completed,
                answered,
                in_flight,
            },
        );
    }

    /// Emits a campaign-defined annotation (e.g. `estimated_caches`).
    pub fn note(&self, key: &'static str, value: u64) {
        self.hub
            .emit(self.id, EventKind::CampaignNote { key, value });
    }

    /// Tags this span with its owning tenant (emits `campaign_tenant`).
    /// Multi-tenant daemons call this right after opening the span.
    pub fn tenant(&self, tenant: &'static str) {
        self.hub.emit(self.id, EventKind::CampaignTenant { tenant });
    }

    /// Emits an arbitrary event tagged with this span's id — the hook
    /// campaign drivers use for probe lifecycle events they originate
    /// (e.g. `probe_planned` at submission time).
    pub fn event(&self, kind: EventKind) {
        self.hub.emit(self.id, kind);
    }

    /// Closes the span with explicit totals.
    pub fn end(mut self, completed: u64, answered: u64, timeouts: u64) {
        self.completed = completed;
        self.answered = answered;
        self.timeouts = timeouts;
        self.finish();
    }

    fn finish(&mut self) {
        if self.ended {
            return;
        }
        self.ended = true;
        self.hub.emit(
            self.id,
            EventKind::CampaignEnd {
                completed: self.completed,
                answered: self.answered,
                timeouts: self.timeouts,
            },
        );
    }
}

impl Drop for CampaignSpan {
    fn drop(&mut self) {
        // A span abandoned mid-flight (early return, panic unwind) still
        // closes with its last reported totals.
        self.finish();
    }
}

static GLOBAL: RwLock<Option<Arc<TelemetryHub>>> = RwLock::new(None);
static DISABLED: OnceLock<Arc<TelemetryHub>> = OnceLock::new();

/// The process-wide hub. Disabled (no-op) until [`install_global`] runs.
pub fn global() -> Arc<TelemetryHub> {
    if let Some(hub) = GLOBAL.read().as_ref() {
        return Arc::clone(hub);
    }
    Arc::clone(DISABLED.get_or_init(TelemetryHub::disabled))
}

/// Installs `hub` as the process-wide hub (replacing any previous one).
/// Library code that calls [`global`] starts emitting into it from the
/// next event on.
pub fn install_global(hub: Arc<TelemetryHub>) {
    *GLOBAL.write() = Some(hub);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropReason;

    #[test]
    fn span_emits_begin_progress_end() {
        let hub = TelemetryHub::new(64);
        let mut span = hub.begin_campaign("test_campaign", 10);
        span.progress(4, 2, 2, 2);
        span.note("estimated_caches", 7);
        span.end(10, 9, 1);
        let events = hub.drain();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec![
                "campaign_begin",
                "campaign_progress",
                "campaign_note",
                "campaign_end"
            ]
        );
        // All tagged with the same span id.
        assert!(events.iter().all(|e| e.campaign == events[0].campaign));
        assert!(matches!(
            events[3].kind,
            EventKind::CampaignEnd {
                completed: 10,
                answered: 9,
                timeouts: 1
            }
        ));
    }

    #[test]
    fn tenant_tag_lands_in_the_span_stream() {
        let hub = TelemetryHub::new(64);
        let span = hub.begin_campaign("tenant_tagged", 4);
        span.tenant("alice");
        span.end(4, 4, 0);
        let events = hub.drain();
        assert_eq!(events[1].kind.name(), "campaign_tenant");
        assert_eq!(events[1].campaign, events[0].campaign);
        let mut line = String::new();
        events[1].write_jsonl(&mut line);
        assert!(line.contains("\"tenant\": \"alice\""), "{line}");
    }

    #[test]
    fn dropped_span_still_ends() {
        let hub = TelemetryHub::new(64);
        {
            let mut span = hub.begin_campaign("abandoned", 0);
            span.progress(5, 3, 1, 2);
        }
        let events = hub.drain();
        assert_eq!(events.last().unwrap().kind.name(), "campaign_end");
        assert!(matches!(
            events.last().unwrap().kind,
            EventKind::CampaignEnd {
                completed: 3,
                answered: 1,
                timeouts: 2
            }
        ));
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let hub = TelemetryHub::disabled();
        hub.emit(
            0,
            EventKind::ReplyDropped {
                reason: DropReason::Stray,
            },
        );
        let mut span = hub.begin_campaign("quiet", 1);
        span.progress(1, 1, 1, 0);
        drop(span);
        assert_eq!(hub.emitted(), 0);
        assert!(hub.drain().is_empty());
    }

    #[test]
    fn emit_all_stamps_on_the_hub_time_base() {
        let hub = TelemetryHub::new(8);
        let at = Instant::now();
        let mut batch = vec![
            hub.event_at(
                at,
                0,
                EventKind::ProbeSent {
                    token: 1,
                    attempt: 0,
                },
            ),
            hub.event_at(
                at + std::time::Duration::from_micros(250),
                3,
                EventKind::ProbePlanned { token: 2 },
            ),
        ];
        hub.emit_all(&mut batch);
        assert!(batch.is_empty());
        let events = hub.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].at_us - events[0].at_us, 250);
        assert_eq!(events[1].campaign, 3);
        assert!(events[0].at_us <= hub.now_us());
        // Before the epoch reads as the epoch.
        if let Some(before) = hub.epoch.checked_sub(std::time::Duration::from_millis(1)) {
            let early = hub.event_at(before, 0, EventKind::ProbePlanned { token: 3 });
            assert_eq!(early.at_us, 0);
        }

        let quiet = TelemetryHub::disabled();
        let mut batch = vec![quiet.event_at(at, 0, EventKind::ProbePlanned { token: 4 })];
        quiet.emit_all(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(quiet.emitted(), 0);
    }

    #[test]
    fn drain_surfaces_ring_loss() {
        let hub = TelemetryHub::new(2);
        for token in 0..5 {
            hub.emit(0, EventKind::ProbePlanned { token });
        }
        let events = hub.drain();
        match events.last().unwrap().kind {
            EventKind::EventsDropped { count } => assert_eq!(count, 3),
            other => panic!("expected events_dropped, got {other:?}"),
        }
    }

    #[test]
    fn a_drain_hands_over_bounded_chunks_then_one_loss_record() {
        let capacity = 3 * DRAIN_CHUNK + 40;
        let hub = TelemetryHub::new(capacity);
        for token in 0..capacity as u64 + 300 {
            hub.emit(0, EventKind::ProbePlanned { token });
        }
        let mut chunks = Vec::new();
        let mut last = None;
        // No writer: nothing is rendered, the events are only counted.
        let drained = hub
            .drain_chunks(None, |chunk| {
                chunks.push(chunk.len());
                last = chunk.last().copied();
            })
            .unwrap();
        assert_eq!(chunks, [DRAIN_CHUNK, DRAIN_CHUNK, DRAIN_CHUNK, 40, 1]);
        assert_eq!(drained, capacity + 1);
        assert!(matches!(
            last.unwrap().kind,
            EventKind::EventsDropped { count: 300 }
        ));
        assert_eq!((hub.emitted(), hub.dropped()), (capacity as u64 + 300, 300));
        assert_eq!(hub.queued(), 0);
        // The loss was reported once: the next drain is empty.
        assert_eq!(hub.drain_chunks(None, |_| {}).unwrap(), 0);
    }

    #[test]
    fn emitters_outpacing_a_drain_cannot_keep_it_going() {
        let capacity = 4 * DRAIN_CHUNK;
        let hub = TelemetryHub::new(capacity);
        for token in 0..capacity as u64 {
            hub.emit(0, EventKind::ProbePlanned { token });
        }
        // Every chunk handed over is replaced by as many new events.
        let drained = hub
            .drain_chunks(None, |chunk| {
                for ev in chunk {
                    hub.emit(0, ev.kind);
                }
            })
            .unwrap();
        assert_eq!(drained, capacity);
        assert_eq!(hub.queued(), capacity);
    }

    #[test]
    fn global_defaults_to_disabled_then_installs() {
        assert!(!global().is_enabled() || global().is_enabled());
        let hub = TelemetryHub::new(8);
        install_global(Arc::clone(&hub));
        assert!(global().is_enabled());
        global().emit(0, EventKind::ProbePlanned { token: 1 });
        assert_eq!(hub.emitted(), 1);
    }
}
