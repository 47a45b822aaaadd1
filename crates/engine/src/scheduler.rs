//! The campaign scheduler: pipelined probe fan-out over a reactor.
//!
//! A measurement campaign is thousands of near-identical probes. A
//! [`PipelinedCampaign`] keeps up to a window of them in flight inside a
//! [`Reactor`]'s correlation table, shrinking the window when the wire
//! turns lossy, and the final [`CampaignReport`] feeds the observed loss
//! straight back into `cde-core`'s [`ProbePlan`] — the paper's
//! loss-aware budget planning, closed over live measurements. Pacing is
//! the reactor's: a [`ReactorConfig::limiter`](crate::ReactorConfig::limiter)
//! schedules sends after their token wait instead of sleeping.

use crate::metrics::MetricsSnapshot;
use crate::reactor::{ProbeCompletion, Reactor, ReactorHandle};
use crate::transport::TransportReply;
use cde_core::ProbePlan;
use cde_dns::{Name, RecordType};
use cde_telemetry::{CampaignSpan, EventKind as TelemetryEvent, ProgressReporter};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

/// One probe to schedule.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Platform ingress to aim at.
    pub ingress: Ipv4Addr,
    /// Name to query.
    pub qname: Name,
    /// Query type.
    pub qtype: RecordType,
}

impl Probe {
    /// An A-record probe for `qname` via `ingress`.
    pub fn a(ingress: Ipv4Addr, qname: Name) -> Probe {
        Probe {
            ingress,
            qname,
            qtype: RecordType::A,
        }
    }
}

/// One scheduled probe's result.
#[derive(Debug, Clone)]
pub struct ProbeOutcome {
    /// The probe as submitted.
    pub probe: Probe,
    /// What the transport saw.
    pub reply: TransportReply,
}

/// Aggregated result of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-probe outcomes, in submission order.
    pub outcomes: Vec<ProbeOutcome>,
    /// Datagrams sent (retransmissions included).
    pub sent: u64,
    /// Responses received.
    pub received: u64,
    /// Probes that failed every attempt.
    pub timeouts: u64,
    /// Retransmissions.
    pub retries: u64,
    /// Probes that had to wait for rate-limit tokens.
    pub rate_limit_stalls: u64,
}

impl CampaignReport {
    /// Probes that got an answer.
    pub fn answered(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.reply.is_answered())
            .count()
    }

    /// Per-attempt wire loss observed by this campaign.
    pub fn wire_loss(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        1.0 - self.received as f64 / self.sent as f64
    }

    /// Probes that exhausted every attempt unanswered.
    pub fn timed_out(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.reply.is_answered())
            .count()
    }

    /// Every submitted probe produced exactly one outcome — answered or
    /// timed out, nothing lost in the correlation slab. The invariant
    /// the chaos suite asserts after every run.
    pub fn fully_accounted(&self, submitted: usize) -> bool {
        self.outcomes.len() == submitted && self.answered() + self.timed_out() == submitted
    }

    /// Plans the next campaign against the same target: the observed loss
    /// feeds `cde-core`'s coupon-collector budgets (paper §IV-C).
    pub fn plan_for(&self, n_max: u64) -> ProbePlan {
        // `for_target` requires loss in [0, 1); a fully-dark target still
        // deserves a (maximally redundant) plan.
        ProbePlan::for_target(n_max, self.wire_loss().clamp(0.0, 0.99))
    }
}

/// Pipelined campaign execution over a [`Reactor`]: submit probes as they
/// become known, collect completions as they arrive, no worker threads.
///
/// A `PipelinedCampaign` keeps up to `window` probes outstanding inside
/// the reactor's correlation table and the submitting thread never
/// blocks on the wire (only on a full window). Typical shape:
///
/// ```no_run
/// # use cde_engine::reactor::{Reactor, ReactorConfig};
/// # use cde_engine::scheduler::{PipelinedCampaign, Probe};
/// # let reactor = Reactor::launch(Default::default(), ReactorConfig::default()).unwrap();
/// # let probes: Vec<Probe> = Vec::new();
/// let mut campaign = PipelinedCampaign::new(&reactor, 1024);
/// for probe in probes {
///     campaign.submit(probe); // blocks only when 1024 are in flight
/// }
/// let report = campaign.finish(); // drains the tail
/// ```
#[derive(Debug)]
pub struct PipelinedCampaign {
    handle: ReactorHandle,
    /// Upper bound on one completion wait; the reactor enforces the real
    /// per-probe deadlines, this only guards against a dead loop.
    grace: Duration,
    done_tx: Sender<ProbeCompletion>,
    done_rx: Receiver<ProbeCompletion>,
    pending: HashMap<u64, Probe>,
    outcomes: Vec<(u64, ProbeOutcome)>,
    next_token: u64,
    window: usize,
    baseline: MetricsSnapshot,
    metrics: Arc<crate::metrics::EngineMetrics>,
    span: CampaignSpan,
    answered: u64,
    /// Completions between `campaign_progress` emissions.
    progress_stride: usize,
    since_progress: usize,
    /// Loss-aware effective window: recomputed every stride from the
    /// campaign's delivered ratio, clamped to `[window / 4, window]`.
    /// A clean wire keeps the full window; a lossy one sheds in-flight
    /// pressure instead of stacking retransmits behind fresh probes.
    paced_window: usize,
}

impl PipelinedCampaign {
    /// Starts a campaign keeping at most `window` probes in flight on
    /// `reactor` (alongside whatever other clients submit).
    pub fn new(reactor: &Reactor, window: usize) -> PipelinedCampaign {
        PipelinedCampaign::named(reactor, window, "pipelined_campaign", 0)
    }

    /// Like [`PipelinedCampaign::new`], with an explicit campaign-span
    /// name and planned probe count for the telemetry stream.
    pub fn named(
        reactor: &Reactor,
        window: usize,
        name: &'static str,
        planned: u64,
    ) -> PipelinedCampaign {
        let (done_tx, done_rx) = unbounded();
        let metrics = reactor.metrics();
        let window = window.max(1);
        PipelinedCampaign {
            handle: reactor.handle(),
            grace: reactor.policy().worst_case() + Duration::from_secs(2),
            done_tx,
            done_rx,
            pending: HashMap::new(),
            outcomes: Vec::new(),
            next_token: 0,
            window,
            baseline: metrics.snapshot(),
            metrics,
            span: reactor.telemetry().begin_campaign(name, planned),
            answered: 0,
            // Roughly two progress events per full window turnover.
            progress_stride: (window / 2).max(1),
            since_progress: 0,
            paced_window: window,
        }
    }

    /// The campaign's telemetry span (e.g. to attach `note` annotations).
    pub fn span(&self) -> &CampaignSpan {
        &self.span
    }

    /// The loss-aware window currently applied: `window` on a clean
    /// wire, shrinking toward `window / 4` as the delivered ratio drops.
    pub fn paced_window(&self) -> usize {
        self.paced_window
    }

    /// Submits one probe, blocking only while the (paced) window is
    /// full.
    pub fn submit(&mut self, probe: Probe) {
        while self.pending.len() >= self.paced_window {
            if !self.complete_one() {
                break;
            }
        }
        let token = self.next_token;
        self.next_token += 1;
        self.span.event(TelemetryEvent::ProbePlanned { token });
        if self.handle.submit(
            token,
            probe.ingress,
            probe.qname.clone(),
            probe.qtype,
            &self.done_tx,
        ) {
            self.pending.insert(token, probe);
        } else {
            // The reactor is gone; fail fast instead of wedging.
            self.outcomes.push((
                token,
                ProbeOutcome {
                    probe,
                    reply: TransportReply::TimedOut,
                },
            ));
        }
    }

    /// Collects any completions already available, without blocking.
    /// Returns how many arrived.
    pub fn try_complete(&mut self) -> usize {
        let mut drained = 0;
        while let Ok(completion) = self.done_rx.try_recv() {
            self.record(completion);
            drained += 1;
        }
        drained
    }

    /// Probes currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Waits for every outstanding probe, then reports. Outcomes are in
    /// submission order; the wire counters are this campaign's share of
    /// the reactor's metrics (delta since [`PipelinedCampaign::new`]).
    pub fn finish(mut self) -> CampaignReport {
        while !self.pending.is_empty() {
            if !self.complete_one() {
                break;
            }
        }
        self.outcomes.sort_by_key(|(token, _)| *token);
        let completed = self.outcomes.len() as u64;
        let answered = self
            .outcomes
            .iter()
            .filter(|(_, o)| o.reply.is_answered())
            .count() as u64;
        std::mem::replace(&mut self.span, CampaignSpan::detached()).end(
            completed,
            answered,
            completed - answered,
        );
        let snap = self.metrics.snapshot();
        CampaignReport {
            outcomes: self.outcomes.into_iter().map(|(_, o)| o).collect(),
            sent: snap.sent.saturating_sub(self.baseline.sent),
            received: snap.received.saturating_sub(self.baseline.received),
            timeouts: snap.timeouts.saturating_sub(self.baseline.timeouts),
            retries: snap.retries.saturating_sub(self.baseline.retries),
            rate_limit_stalls: snap
                .rate_limit_stalls
                .saturating_sub(self.baseline.rate_limit_stalls),
        }
    }

    /// Blocks for one completion. `false` means the reactor died — all
    /// remaining pending probes are failed as timed out.
    fn complete_one(&mut self) -> bool {
        match self.done_rx.recv_timeout(self.grace) {
            Ok(completion) => {
                self.record(completion);
                true
            }
            Err(_) => {
                for (token, probe) in std::mem::take(&mut self.pending) {
                    self.outcomes.push((
                        token,
                        ProbeOutcome {
                            probe,
                            reply: TransportReply::TimedOut,
                        },
                    ));
                }
                false
            }
        }
    }

    fn record(&mut self, completion: ProbeCompletion) {
        if let Some(probe) = self.pending.remove(&completion.token) {
            if completion.reply.is_answered() {
                self.answered += 1;
            }
            self.outcomes.push((
                completion.token,
                ProbeOutcome {
                    probe,
                    reply: completion.reply,
                },
            ));
            self.since_progress += 1;
            if self.since_progress >= self.progress_stride {
                self.since_progress = 0;
                self.repace();
                self.span.progress(
                    self.next_token,
                    self.outcomes.len() as u64,
                    self.answered,
                    self.pending.len() as u64,
                );
            }
        }
    }

    /// Recomputes the loss-aware window from the campaign's share of the
    /// reactor's counters: `received / (sent − in_flight)` approximates
    /// the per-attempt delivered ratio over *resolved* attempts (what's
    /// still in flight hasn't voted yet). The effective window is the
    /// configured window scaled by that ratio, floored at a quarter so a
    /// blackout never serializes the campaign entirely.
    fn repace(&mut self) {
        let snap = self.metrics.snapshot();
        let sent = snap.sent.saturating_sub(self.baseline.sent);
        let received = snap.received.saturating_sub(self.baseline.received);
        let resolved = sent.saturating_sub(snap.in_flight).max(1);
        let delivered = (received as f64 / resolved as f64).clamp(0.0, 1.0);
        let floor = (self.window / 4).max(1);
        let scaled = (self.window as f64 * delivered).round() as usize;
        self.paced_window = scaled.clamp(floor, self.window);
        self.metrics.set_paced_window(self.paced_window as u64);
    }
}

/// Runs `probes` through `reactor` with up to `window` in flight;
/// blocks until all complete.
pub fn run_campaign_pipelined(
    reactor: &Reactor,
    probes: Vec<Probe>,
    window: usize,
) -> CampaignReport {
    run_campaign_pipelined_reported(reactor, probes, window, "pipelined_campaign", None)
}

/// [`run_campaign_pipelined`] with an explicit campaign-span name and an
/// optional [`ProgressReporter`] ticked through the submission loop and
/// flushed when the campaign completes — the JSONL stream (and TTY line)
/// track the campaign live instead of appearing when it ends.
pub fn run_campaign_pipelined_reported(
    reactor: &Reactor,
    probes: Vec<Probe>,
    window: usize,
    name: &'static str,
    mut reporter: Option<&mut ProgressReporter>,
) -> CampaignReport {
    let mut campaign = PipelinedCampaign::named(reactor, window, name, probes.len() as u64);
    for probe in probes {
        campaign.submit(probe);
        if let Some(r) = reporter.as_deref_mut() {
            let _ = r.tick();
        }
    }
    let report = campaign.finish();
    if let Some(r) = reporter {
        let _ = r.flush();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::ReactorConfig;
    use crate::retry::RetryPolicy;

    #[test]
    fn pacing_shrinks_the_window_under_total_loss() {
        // No routes at all: every probe resolves as an unanswered
        // timeout, so the delivered ratio is 0 and pacing must floor
        // the window at a quarter of the configured one.
        let reactor = Reactor::launch(
            HashMap::new(),
            ReactorConfig::with_policy(
                RetryPolicy {
                    attempts: 1,
                    timeout: Duration::from_millis(20),
                    backoff: 1.0,
                    base_delay: Duration::from_millis(1),
                    jitter: 0.0,
                },
                5,
            ),
        )
        .unwrap();
        let mut campaign = PipelinedCampaign::new(&reactor, 8);
        assert_eq!(campaign.paced_window(), 8, "starts at the full window");
        let qname: Name = "dark.example".parse().unwrap();
        for _ in 0..16 {
            campaign.submit(Probe::a(Ipv4Addr::new(192, 0, 2, 77), qname.clone()));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while campaign.in_flight() > 0 && std::time::Instant::now() < deadline {
            campaign.try_complete();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(campaign.paced_window(), 2, "floored at window / 4");
        let report = campaign.finish();
        assert!(report.fully_accounted(16));
    }
}
