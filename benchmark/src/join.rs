//! The per-probe pipeline `submit → send → reflect → pickup →
//! completion`, rebuilt by joining three logs on the probe token: the
//! generator's, the reflector's and the engine's flight records. All
//! times are microseconds on the flight recorder's clock
//! (`FlightRing::instant_us` maps the harness's instants onto it).

use cde_engine::{FlightDisposition, FlightRecord};
use std::collections::HashMap;

/// What the generator knows about one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submitted {
    pub token: u64,
    /// When the schedule said to send it (equals `submit_us` in a closed
    /// loop).
    pub due_us: u64,
    /// When `submit` was called.
    pub submit_us: u64,
    /// When its completion was taken off the channel.
    pub completed_us: u64,
}

/// One probe followed through every stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pipeline {
    pub token: u64,
    pub due_us: u64,
    pub submit_us: u64,
    pub sent_us: u64,
    pub released_us: u64,
    pub matched_us: u64,
    pub completed_us: u64,
}

impl Pipeline {
    pub fn submit_to_send_us(&self) -> u64 {
        self.sent_us.saturating_sub(self.submit_us)
    }

    pub fn reply_pickup_us(&self) -> u64 {
        self.matched_us.saturating_sub(self.released_us)
    }

    pub fn completion_us(&self) -> u64 {
        self.completed_us.saturating_sub(self.due_us)
    }
}

#[derive(Debug, Default)]
pub struct Joined {
    pub pipelines: Vec<Pipeline>,
    /// Probes left out because they were sent more than once: a reply
    /// after a retransmit cannot be pinned to one release.
    pub retransmitted: usize,
    /// Probes with a log missing (flight record shed, reply never seen).
    pub unmatched: usize,
}

impl Joined {
    pub fn share(&self) -> f64 {
        let all = self.pipelines.len() + self.retransmitted + self.unmatched;
        if all == 0 {
            return 0.0;
        }
        self.pipelines.len() as f64 / all as f64
    }
}

/// Joins the three logs. `released` holds `(token, release µs)` pairs,
/// possibly several per token when the probe was retransmitted.
pub fn join(submitted: &[Submitted], released: &[(u64, u64)], flight: &[FlightRecord]) -> Joined {
    let mut releases: HashMap<u64, (u64, u32)> = HashMap::with_capacity(released.len());
    for &(token, at) in released {
        let entry = releases.entry(token).or_insert((at, 0));
        entry.1 += 1;
    }
    let answered: HashMap<u64, &FlightRecord> = flight
        .iter()
        .filter(|r| r.disposition == FlightDisposition::Answered)
        .map(|r| (r.token, r))
        .collect();
    let mut out = Joined::default();
    for s in submitted {
        let (Some(rec), Some(&(released_us, copies))) =
            (answered.get(&s.token), releases.get(&s.token))
        else {
            out.unmatched += 1;
            continue;
        };
        if rec.attempts != 1 || copies != 1 {
            out.retransmitted += 1;
            continue;
        }
        out.pipelines.push(Pipeline {
            token: s.token,
            due_us: s.due_us,
            submit_us: s.submit_us,
            sent_us: rec.sent_at_us,
            released_us,
            matched_us: rec.matched_at_us,
            completed_us: s.completed_us,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn flight(token: u64, attempts: u8, sent: u64, matched: u64) -> FlightRecord {
        FlightRecord {
            token,
            ingress: Ipv4Addr::new(192, 0, 2, 1),
            shard: 0,
            attempts,
            disposition: FlightDisposition::Answered,
            recorded_at_us: matched,
            sent_at_us: sent,
            matched_at_us: matched,
            expired_at_us: 0,
            rto_us: 100_000,
            wire_size: 40,
            qid: 1,
        }
    }

    fn submitted(token: u64, due: u64) -> Submitted {
        Submitted {
            token,
            due_us: due,
            submit_us: due + 5,
            completed_us: due + 2_400,
        }
    }

    #[test]
    fn first_attempt_probes_join_across_all_three_logs() {
        let j = join(
            &[submitted(0, 1_000), submitted(1, 2_000)],
            &[(1, 4_060), (0, 3_050)],
            &[flight(0, 1, 1_030, 3_330), flight(1, 1, 2_020, 4_300)],
        );
        assert_eq!((j.pipelines.len(), j.retransmitted, j.unmatched), (2, 0, 0));
        let p = j.pipelines[0];
        assert_eq!(p.token, 0);
        assert_eq!(p.submit_to_send_us(), 25);
        assert_eq!(p.reply_pickup_us(), 280);
        assert_eq!(p.completion_us(), 2_400);
        assert_eq!(j.share(), 1.0);
    }

    #[test]
    fn retransmitted_probe_is_excluded_not_mismeasured() {
        let j = join(
            &[
                submitted(0, 1_000),
                submitted(1, 2_000),
                submitted(2, 3_000),
            ],
            // Token 1 reached the reflector twice; token 2 was resent but
            // only one copy arrived.
            &[(0, 3_050), (1, 4_060), (1, 104_060), (2, 105_000)],
            &[
                flight(0, 1, 1_030, 3_330),
                flight(1, 2, 102_020, 104_300),
                flight(2, 2, 103_000, 105_200),
            ],
        );
        assert_eq!(j.pipelines.len(), 1);
        assert_eq!(j.pipelines[0].token, 0);
        assert_eq!(j.retransmitted, 2);
    }

    #[test]
    fn missing_logs_count_as_unmatched() {
        let mut timed_out = flight(1, 1, 10, 0);
        timed_out.disposition = FlightDisposition::TimedOut;
        let j = join(
            &[
                submitted(0, 1_000),
                submitted(1, 2_000),
                submitted(2, 3_000),
            ],
            &[(0, 3_050), (2, 5_000)],
            // Token 1 timed out; token 2's record was shed from the ring.
            &[flight(0, 1, 1_030, 3_330), timed_out],
        );
        assert_eq!((j.pipelines.len(), j.unmatched), (1, 2));
        assert!((j.share() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(join(&[], &[], &[]).share(), 0.0);
    }
}
