//! The campaign progress reporter: a periodic drain from hub to sink.
//!
//! Emitters push into the hub's ring from the hot path; *somebody* has to
//! pull, or the ring sheds. A [`ProgressReporter`] is that somebody for
//! batch campaigns: call [`ProgressReporter::tick`] from the submission
//! loop (it rate-limits itself to the configured interval) and
//! [`ProgressReporter::flush`] once at the end. Every drained event goes
//! to the JSONL sink, and — when the TTY line is enabled — the latest
//! `campaign_progress` totals are redrawn in place on stderr.

use crate::event::EventKind;
use crate::hub::TelemetryHub;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default reporting cadence: frequent enough for a live TTY, far too
/// slow to matter next to probe I/O.
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(250);

/// Drains a [`TelemetryHub`] into a JSONL sink on a fixed cadence, with
/// an optional in-place TTY progress line. See the module docs.
pub struct ProgressReporter {
    hub: Arc<TelemetryHub>,
    sink: Option<Box<dyn io::Write + Send>>,
    tty: bool,
    interval: Duration,
    last_drain: Option<Instant>,
    /// Latest `campaign_progress` totals, for the TTY line:
    /// `(campaign, submitted, completed, answered, in_flight)`.
    last_progress: Option<(u32, u64, u64, u64, u64)>,
    tty_dirty: bool,
    events_written: u64,
}

impl ProgressReporter {
    /// A reporter for `hub` with the default cadence, no sink, no TTY.
    pub fn new(hub: Arc<TelemetryHub>) -> ProgressReporter {
        ProgressReporter {
            hub,
            sink: None,
            tty: false,
            interval: DEFAULT_INTERVAL,
            last_drain: None,
            last_progress: None,
            tty_dirty: false,
            events_written: 0,
        }
    }

    /// Streams every drained event to `sink` as JSONL.
    pub fn to_sink(mut self, sink: impl io::Write + Send + 'static) -> ProgressReporter {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Enables (or disables) the in-place progress line on stderr.
    pub fn with_tty(mut self, tty: bool) -> ProgressReporter {
        self.tty = tty;
        self
    }

    /// Sets the minimum interval between [`ProgressReporter::tick`]
    /// drains.
    pub fn every(mut self, interval: Duration) -> ProgressReporter {
        self.interval = interval;
        self
    }

    /// Drains if the interval has elapsed since the last drain. Cheap to
    /// call from a submission loop: off-cadence calls are one `Instant`
    /// comparison.
    pub fn tick(&mut self) -> io::Result<()> {
        if let Some(last) = self.last_drain {
            if last.elapsed() < self.interval {
                return Ok(());
            }
        }
        self.drain()
    }

    /// Drains unconditionally: every queued event to the sink, the TTY
    /// line finalized with a newline. Call once when the campaign ends.
    pub fn flush(&mut self) -> io::Result<()> {
        self.drain()?;
        if let Some(sink) = &mut self.sink {
            sink.flush()?;
        }
        if self.tty && self.tty_dirty {
            eprintln!();
            self.tty_dirty = false;
        }
        Ok(())
    }

    /// Events written to the sink so far.
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    fn drain(&mut self) -> io::Result<()> {
        self.last_drain = Some(Instant::now());
        let last_progress = &mut self.last_progress;
        let drained = self.hub.drain_chunks(
            self.sink.as_deref_mut().map(|s| s as &mut dyn io::Write),
            |chunk| {
                for ev in chunk {
                    if let EventKind::CampaignProgress {
                        submitted,
                        completed,
                        answered,
                        in_flight,
                    } = ev.kind
                    {
                        *last_progress =
                            Some((ev.campaign, submitted, completed, answered, in_flight));
                    }
                }
            },
        )?;
        if drained == 0 {
            return Ok(());
        }
        if self.sink.is_some() {
            self.events_written += drained as u64;
        }
        if self.tty {
            if let Some((campaign, submitted, completed, answered, in_flight)) = self.last_progress
            {
                eprint!(
                    "\r[campaign {campaign}] submitted {submitted}  completed {completed}  \
                     answered {answered}  in-flight {in_flight}    "
                );
                self.tty_dirty = true;
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for ProgressReporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressReporter")
            .field("tty", &self.tty)
            .field("interval", &self.interval)
            .field("events_written", &self.events_written)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// An `io::Write` capturing into shared memory.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn flush_streams_all_events_as_jsonl() {
        let hub = TelemetryHub::new(128);
        let out = SharedBuf::default();
        let mut reporter = ProgressReporter::new(Arc::clone(&hub)).to_sink(out.clone());
        let mut span = hub.begin_campaign("report_test", 3);
        span.progress(2, 1, 1, 1);
        span.end(3, 2, 1);
        reporter.flush().unwrap();
        let text = String::from_utf8(out.0.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\": \"campaign_begin\""));
        assert!(lines[1].contains("\"kind\": \"campaign_progress\""));
        assert!(lines[2].contains("\"kind\": \"campaign_end\""));
        assert_eq!(reporter.events_written(), 3);
    }

    #[test]
    fn tick_respects_the_interval() {
        let hub = TelemetryHub::new(128);
        let out = SharedBuf::default();
        let mut reporter = ProgressReporter::new(Arc::clone(&hub))
            .to_sink(out.clone())
            .every(Duration::from_secs(3600));
        hub.emit(0, EventKind::ProbePlanned { token: 1 });
        reporter.tick().unwrap(); // first tick always drains
        hub.emit(0, EventKind::ProbePlanned { token: 2 });
        reporter.tick().unwrap(); // within the interval: no drain
        assert_eq!(reporter.events_written(), 1);
        reporter.flush().unwrap(); // flush ignores the interval
        assert_eq!(reporter.events_written(), 2);
    }
}
