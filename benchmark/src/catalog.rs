//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` is this
//! file rendered (`cde-benchmark describe`); a unit test keeps the two
//! identical.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "reflector_flood",
        why: "closed loop, window 128, all tiers off, against an inline reflector: the reactor's own ceiling, shard saturated, so a ns saved in wire/sysio/timer/correlation shows 1:1 as throughput",
    },
    Workload {
        name: "reflector_observed",
        why: "reflector_flood with telemetry, insight, pulse, flight and a registry on: the cost of the four observability tiers where per-probe cost is undiluted",
    },
    Workload {
        name: "chain_flood",
        why: "closed loop, back-to-back 50k-probe PipelinedCampaigns over LiveTestbed with one warm honey name: the identical-query burst through scheduler, resolver, platform and dns-cache",
    },
    Workload {
        name: "paced_rtt",
        why: "open loop, Poisson 1000/s, unique names, reflector holding replies 2000 us: RTT fidelity when the loop idles between events (nap and waker bound, not CPU bound)",
    },
    Workload {
        name: "lossy_count",
        why: "sequential exact-count enumerations (planted n cycling 2/3/5/8) under 30% bursty loss with adaptive RTO: timers fire and retransmits happen, one probe in flight",
    },
];

/// Segments every run is cut into; a reported timing is the median of
/// the per-segment values.
pub const SEGMENTS: usize = 7;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Reported by every workload on every untraced run, never 0.
///
/// The bounds are wide because the reference box is: a shared 2-core
/// VM whose speed dips by 10–15 % for ten to twenty seconds at a time.
/// Ten runs with ten seeds spread `probes_per_s` by 2–4 % while the box
/// is quiet and by 11–14 % while it is not, and `engine_cpu_us_per_probe`
/// on `paced_rtt` by 4 % and 26 %. A bound has to hold in both.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "probes_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "engine_cpu_us_per_probe",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rtt_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sends_per_answer",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// How far a workload-specific gated metric may move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the baseline's value.
    Relative(f64),
    /// Absolute difference, for metrics whose baseline is 0.
    Absolute(f64),
}

/// An end-to-end metric that exists on some workloads only. The driver
/// contract wants every `BENCHMARK.json` end-to-end metric on every
/// workload, so these are printed, stored in `results.json` and gated
/// by `cde-benchmark compare`, but are not in `BENCHMARK.json`. Their
/// bounds are for two runs with the same seed, which is how `compare`
/// is used.
pub struct Specific {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    pub workloads: &'static [&'static str],
}

pub const ALL: &[&str] = &[
    "reflector_flood",
    "reflector_observed",
    "chain_flood",
    "paced_rtt",
    "lossy_count",
];
const PACED: &[&str] = &["paced_rtt"];
const LOSSY: &[&str] = &["lossy_count"];

pub const SPECIFIC: &[Specific] = &[
    Specific {
        name: "reply_pickup_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Relative(0.15),
        workloads: PACED,
    },
    Specific {
        name: "submit_to_send_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Relative(0.15),
        workloads: PACED,
    },
    Specific {
        name: "completion_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        workloads: PACED,
    },
    Specific {
        name: "count_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        workloads: LOSSY,
    },
    Specific {
        name: "probes_spent",
        unit: "count",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        workloads: LOSSY,
    },
    Specific {
        name: "retransmits",
        unit: "count",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        workloads: LOSSY,
    },
    Specific {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::Absolute(0.001),
        workloads: ALL,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Reported by every workload on every traced run. The first block is
/// the isolated micro-timings (public functions only, the same in every
/// workload's run); the rest is read from public snapshots at the
/// workload's boundaries.
pub const PER_LAYER: &[Layer] = &[
    lower("dns-core.encode_query_ns", "ns"),
    lower("dns-core.peek_parse_ns", "ns"),
    lower("dns-core.decode_ns", "ns"),
    lower("dns-core.allocs_per_encode", "count"),
    lower("sysio.ring_push_pop_ns", "ns"),
    lower("sysio.send_batch_ns_per_dgram.b1", "ns"),
    lower("sysio.send_batch_ns_per_dgram.b8", "ns"),
    lower("sysio.send_batch_ns_per_dgram.b32", "ns"),
    lower("sysio.recv_batch_ns_per_dgram.b1", "ns"),
    lower("sysio.recv_batch_ns_per_dgram.b8", "ns"),
    lower("sysio.recv_batch_ns_per_dgram.b32", "ns"),
    lower("engine.timer.schedule_ns", "ns"),
    lower("engine.timer.advance_ns_per_entry", "ns"),
    lower("engine.timer.advance_filtered_ns_per_entry", "ns"),
    lower("engine.bufpool.take_give_ns", "ns"),
    lower("engine.ratelimit.debit_ns", "ns"),
    lower("engine.ratelimit.weighted_debit_ns", "ns"),
    lower("engine.rto.observe_rtt_ns", "ns"),
    lower("engine.rto.deadline_for_ns", "ns"),
    lower("engine.flight.record_ns", "ns"),
    lower("insight.digest_record_ns", "ns"),
    lower("insight.estimator_observe_ns", "ns"),
    lower("pulse.exemplar_record_ns", "ns"),
    lower("telemetry.emit_ns", "ns"),
    lower("telemetry.emit_contended_ns", "ns"),
    lower("telemetry.drain_jsonl_ns_per_event", "ns"),
    lower("faults.decide_ns", "ns"),
    lower("platform.handle_query_hit_ns", "ns"),
    lower("platform.handle_query_miss_ns", "ns"),
    lower("dns-cache.lookup_hit_ns", "ns"),
    lower("dns-cache.insert_ns", "ns"),
    lower("core.planner_record_ns", "ns"),
    higher("core.enumerate_sim_probes_per_s", "1/s"),
    lower("engine.resolver.serve_hit_us", "us"),
    higher("engine.resolver.serve_rate_per_s", "1/s"),
    lower("engine.authority.serve_us", "us"),
    higher("engine.authority.serve_rate_per_s", "1/s"),
    lower("engine.scheduler.pipelined_overhead_us_per_probe", "us"),
    higher("engine.reactor.busy_share", "ratio"),
    lower("engine.reactor.loop_iters_per_probe", "count"),
    lower("engine.reactor.loop_mean_us", "us"),
    higher("engine.reactor.send_batch_mean", "count"),
    lower("engine.reactor.parks_per_probe", "count"),
    lower("engine.reactor.wake_latency_mean_us", "us"),
    lower("engine.reactor.in_flight_peak", "count"),
    lower("engine.reactor.ring_depth_peak", "count"),
    lower("engine.reactor.wheel_pending_peak", "count"),
    lower("engine.reactor.retries", "count"),
    lower("engine.reactor.timeouts", "count"),
    lower("engine.reactor.strays", "count"),
    lower("engine.reactor.decode_errors", "count"),
    lower("engine.reactor.rtt_p99_us", "us"),
    lower("engine.reactor.phase.timers_ns", "ns"),
    lower("engine.reactor.phase.encode_ns", "ns"),
    lower("engine.reactor.phase.send_batch_ns", "ns"),
    lower("engine.reactor.phase.recv_batch_ns", "ns"),
    lower("engine.reactor.phase.decode_ns", "ns"),
    lower("engine.reactor.phase.correlate_ns", "ns"),
    lower("engine.bufpool.minted", "count"),
    higher("engine.bufpool.recycled_share", "ratio"),
    lower("engine.rto.adaptive_deadlines", "count"),
    lower("engine.rto.backoffs", "count"),
    lower("faults.query_drops", "count"),
    lower("faults.reply_drops", "count"),
    lower("telemetry.events_emitted", "count"),
    lower("telemetry.events_dropped", "count"),
    lower("engine.flight.records", "count"),
    lower("engine.flight.shed", "count"),
    lower("engine.authority.queries_served", "count"),
    lower("engine.resolver.dropped_observations", "count"),
    lower("bench.trace_overhead_share", "ratio"),
    higher("ledger.reactor_attributed_share", "ratio"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The run length `BENCHMARK.json` asks the driver for.
pub const RUN_SECONDS: u64 = 22;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json(RUN_SECONDS).len() < 64 * 1024);
        for s in SPECIFIC {
            assert!(!seen.contains(s.name), "{} is in two tables", s.name);
            assert!(s.workloads.iter().all(|w| workload(w).is_some()));
        }
    }

    #[test]
    fn committed_benchmark_json_is_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(RUN_SECONDS),
            "regenerate with `cde-benchmark describe > BENCHMARK.json`"
        );
    }
}
