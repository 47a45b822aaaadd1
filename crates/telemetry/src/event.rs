//! The structured event vocabulary: campaign spans and per-probe
//! lifecycle, serialized as one flat JSON object per line (JSONL).
//!
//! Events are `Copy` and carry no owned data — emitting one from the
//! reactor's hot path allocates nothing. Campaign names are `&'static
//! str` for the same reason.

use crate::json;

/// Why the engine discarded a well-formed reply instead of matching it
/// to an outstanding probe. Mirrors the reactor's correlation checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// No outstanding probe with that query id — wrong or stale id, or a
    /// late/duplicate reply arriving after the attempt was retired.
    Stray,
    /// The query id matched but the source address did not: off-path
    /// spoofing.
    Spoofed,
    /// Id and source matched but the echoed question differed — a
    /// query-id collision duplicating someone else's answer onto ours.
    Duplicate,
}

impl DropReason {
    /// Stable wire name, used in JSONL and metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::Stray => "stray",
            DropReason::Spoofed => "spoofed",
            DropReason::Duplicate => "duplicate",
        }
    }
}

/// One telemetry event. The probe lifecycle runs
/// planned → sent → (retried → sent)* → matched | timed_out, with
/// `reply_dropped` recording replies rejected by the correlation checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A campaign span opened. `planned` is the campaign's own unit of
    /// work (probes, rounds, ingresses — span-defined).
    CampaignBegin {
        /// Static campaign name (e.g. `"enumerate_adaptive"`).
        name: &'static str,
        /// Planned units of work, 0 when unknown up front.
        planned: u64,
    },
    /// Periodic progress inside a campaign span.
    CampaignProgress {
        /// Probes handed to the engine so far.
        submitted: u64,
        /// Probes finished (answered or failed).
        completed: u64,
        /// Probes that got an answer.
        answered: u64,
        /// Probes currently outstanding.
        in_flight: u64,
    },
    /// A campaign-defined annotation (e.g. `estimated_caches`).
    CampaignNote {
        /// Static annotation key.
        key: &'static str,
        /// Annotation value.
        value: u64,
    },
    /// The tenant a campaign span belongs to — multi-tenant daemons tag
    /// each span right after `campaign_begin` so one JSONL stream can be
    /// split per tenant.
    CampaignTenant {
        /// Tenant name. `&'static str` keeps events `Copy`; daemons
        /// intern each tenant name once at registration (the tenant set
        /// is small and bounded).
        tenant: &'static str,
    },
    /// A campaign span closed.
    CampaignEnd {
        /// Units completed (same unit as `CampaignBegin::planned`).
        completed: u64,
        /// Units answered/successful.
        answered: u64,
        /// Units that failed every attempt.
        timeouts: u64,
    },
    /// A probe was admitted into the engine.
    ProbePlanned {
        /// Caller correlation token.
        token: u64,
    },
    /// A probe attempt went out on the wire.
    ProbeSent {
        /// Caller correlation token.
        token: u64,
        /// Attempt number, 0-based (0 = first send).
        attempt: u32,
    },
    /// An attempt's deadline passed and a retransmit was scheduled.
    ProbeRetried {
        /// Caller correlation token.
        token: u64,
        /// The attempt number about to be sent.
        attempt: u32,
    },
    /// A reply matched the probe (id, source and question all verified).
    ProbeMatched {
        /// Caller correlation token.
        token: u64,
        /// Attempt that was answered.
        attempt: u32,
        /// Round-trip time measured from the probe's *last* send,
        /// microseconds.
        rtt_us: u64,
        /// The probe had been retransmitted before this reply arrived,
        /// so `rtt_us` may belong to an earlier attempt than the one
        /// the reply answered — consumers doing timing analysis (the
        /// §IV-B3 latency side channel) should exclude such samples.
        retransmit_ambiguous: bool,
    },
    /// The probe exhausted every attempt without an answer.
    ProbeTimedOut {
        /// Caller correlation token.
        token: u64,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A well-formed reply was rejected by the correlation checks.
    ReplyDropped {
        /// Which check rejected it.
        reason: DropReason,
    },
    /// The telemetry ring shed `count` events since the last drain —
    /// emitted by the drain side so loss is visible in the stream itself.
    EventsDropped {
        /// Events shed (drop-oldest) since the previous drain.
        count: u64,
    },
}

impl EventKind {
    /// Stable wire name of the event kind.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::CampaignBegin { .. } => "campaign_begin",
            EventKind::CampaignProgress { .. } => "campaign_progress",
            EventKind::CampaignNote { .. } => "campaign_note",
            EventKind::CampaignTenant { .. } => "campaign_tenant",
            EventKind::CampaignEnd { .. } => "campaign_end",
            EventKind::ProbePlanned { .. } => "probe_planned",
            EventKind::ProbeSent { .. } => "probe_sent",
            EventKind::ProbeRetried { .. } => "probe_retried",
            EventKind::ProbeMatched { .. } => "probe_matched",
            EventKind::ProbeTimedOut { .. } => "probe_timed_out",
            EventKind::ReplyDropped { .. } => "reply_dropped",
            EventKind::EventsDropped { .. } => "events_dropped",
        }
    }
}

/// A timestamped event, tagged with the campaign span it belongs to
/// (`campaign == 0` means "no span": engine-level probe events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the hub's epoch.
    pub at_us: u64,
    /// Owning campaign span id, 0 for none.
    pub campaign: u32,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Appends this event to `out` — a `String`, or the byte buffer a
    /// drain writes out — as one JSONL line (newline included).
    ///
    /// Each key, and each kind's name with the key before it, is one
    /// literal piece; numbers and strings go through [`json`]'s
    /// `core::fmt`-free writers. A kind's literal must spell
    /// [`EventKind::name`].
    pub fn write_jsonl(&self, out: &mut impl json::Text) {
        out.push_str("{\"at_us\": ");
        json::write_u64(out, self.at_us);
        out.push_str(", \"campaign\": ");
        json::write_u64(out, u64::from(self.campaign));
        match self.kind {
            EventKind::CampaignBegin { name, planned } => {
                out.push_str(", \"kind\": \"campaign_begin\", \"name\": ");
                json::write_str(out, name);
                out.push_str(", \"planned\": ");
                json::write_u64(out, planned);
            }
            EventKind::CampaignProgress {
                submitted,
                completed,
                answered,
                in_flight,
            } => {
                out.push_str(", \"kind\": \"campaign_progress\", \"submitted\": ");
                json::write_u64(out, submitted);
                out.push_str(", \"completed\": ");
                json::write_u64(out, completed);
                out.push_str(", \"answered\": ");
                json::write_u64(out, answered);
                out.push_str(", \"in_flight\": ");
                json::write_u64(out, in_flight);
            }
            EventKind::CampaignNote { key, value } => {
                out.push_str(", \"kind\": \"campaign_note\", \"key\": ");
                json::write_str(out, key);
                out.push_str(", \"value\": ");
                json::write_u64(out, value);
            }
            EventKind::CampaignTenant { tenant } => {
                out.push_str(", \"kind\": \"campaign_tenant\", \"tenant\": ");
                json::write_str(out, tenant);
            }
            EventKind::CampaignEnd {
                completed,
                answered,
                timeouts,
            } => {
                out.push_str(", \"kind\": \"campaign_end\", \"completed\": ");
                json::write_u64(out, completed);
                out.push_str(", \"answered\": ");
                json::write_u64(out, answered);
                out.push_str(", \"timeouts\": ");
                json::write_u64(out, timeouts);
            }
            EventKind::ProbePlanned { token } => {
                out.push_str(", \"kind\": \"probe_planned\", \"token\": ");
                json::write_u64(out, token);
            }
            EventKind::ProbeSent { token, attempt } => {
                out.push_str(", \"kind\": \"probe_sent\", \"token\": ");
                write_token_attempt(out, token, attempt);
            }
            EventKind::ProbeRetried { token, attempt } => {
                out.push_str(", \"kind\": \"probe_retried\", \"token\": ");
                write_token_attempt(out, token, attempt);
            }
            EventKind::ProbeMatched {
                token,
                attempt,
                rtt_us,
                retransmit_ambiguous,
            } => {
                out.push_str(", \"kind\": \"probe_matched\", \"token\": ");
                write_token_attempt(out, token, attempt);
                out.push_str(", \"rtt_us\": ");
                json::write_u64(out, rtt_us);
                out.push_str(if retransmit_ambiguous {
                    ", \"retransmit_ambiguous\": true"
                } else {
                    ", \"retransmit_ambiguous\": false"
                });
            }
            EventKind::ProbeTimedOut { token, attempts } => {
                out.push_str(", \"kind\": \"probe_timed_out\", \"token\": ");
                json::write_u64(out, token);
                out.push_str(", \"attempts\": ");
                json::write_u64(out, u64::from(attempts));
            }
            EventKind::ReplyDropped { reason } => {
                out.push_str(", \"kind\": \"reply_dropped\", \"reason\": ");
                json::write_str(out, reason.as_str());
            }
            EventKind::EventsDropped { count } => {
                out.push_str(", \"kind\": \"events_dropped\", \"count\": ");
                json::write_u64(out, count);
            }
        }
        out.push_str("}\n");
    }
}

/// `N, "attempt": M` — the tail the probe kinds share after `"token": `.
fn write_token_attempt(out: &mut impl json::Text, token: u64, attempt: u32) {
    json::write_u64(out, token);
    out.push_str(", \"attempt\": ");
    json::write_u64(out, u64::from(attempt));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_is_flat_and_tagged() {
        let ev = Event {
            at_us: 1500,
            campaign: 3,
            kind: EventKind::ProbeMatched {
                token: 42,
                attempt: 1,
                rtt_us: 730,
                retransmit_ambiguous: true,
            },
        };
        let mut line = String::new();
        ev.write_jsonl(&mut line);
        assert_eq!(
            line,
            "{\"at_us\": 1500, \"campaign\": 3, \"kind\": \"probe_matched\", \
             \"token\": 42, \"attempt\": 1, \"rtt_us\": 730, \
             \"retransmit_ambiguous\": true}\n"
        );
    }

    #[test]
    fn every_kind_serializes_with_its_name() {
        let kinds = [
            EventKind::CampaignBegin {
                name: "x",
                planned: 1,
            },
            EventKind::CampaignProgress {
                submitted: 1,
                completed: 1,
                answered: 1,
                in_flight: 0,
            },
            EventKind::CampaignNote { key: "k", value: 9 },
            EventKind::CampaignTenant { tenant: "alice" },
            EventKind::CampaignEnd {
                completed: 1,
                answered: 1,
                timeouts: 0,
            },
            EventKind::ProbePlanned { token: 1 },
            EventKind::ProbeSent {
                token: 1,
                attempt: 0,
            },
            EventKind::ProbeRetried {
                token: 1,
                attempt: 1,
            },
            EventKind::ProbeMatched {
                token: 1,
                attempt: 0,
                rtt_us: 5,
                retransmit_ambiguous: false,
            },
            EventKind::ProbeTimedOut {
                token: 1,
                attempts: 3,
            },
            EventKind::ReplyDropped {
                reason: DropReason::Spoofed,
            },
            EventKind::EventsDropped { count: 7 },
        ];
        for kind in kinds {
            let mut line = String::new();
            Event {
                at_us: 0,
                campaign: 0,
                kind,
            }
            .write_jsonl(&mut line);
            assert!(line.contains(kind.name()), "{line}");
            assert!(line.ends_with("}\n"), "{line}");
        }
    }
}
