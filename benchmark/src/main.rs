//! `cde-benchmark`: the repo benchmark. One invocation runs one workload
//! and prints every metric as `workload metric value unit`, then one
//! JSON result line; `compare` holds two result sets against the
//! bounds; `describe` prints `BENCHMARK.json`. See `README.md`.

mod alloc;
mod catalog;
mod compare;
mod join;
mod json;
mod keepawake;
mod layers;
mod procstat;
mod reflector;
mod report;
mod schedule;
mod spans;
mod stats;
mod workloads;

use crate::report::Report;
use crate::spans::Tracer;
use crate::workloads::{Env, Scratch, WorkloadRun};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Milliseconds each isolated layer timing gets inside a driver run.
const DEFAULT_LAYER_MS: u64 = 40;

const USAGE: &str = "usage:
  cde-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
                [--layers-ms <ms>] [--out <dir>] [--json-out <file>]
  cde-benchmark collect <results.json> <key=value>... -- <run.json>...
  cde-benchmark compare <A.json> <B.json>
  cde-benchmark spread <run.json>...
  cde-benchmark describe";

struct RunArgs {
    workload: String,
    env: Env,
    layer_ms: u64,
    out_dir: PathBuf,
    json_out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (12u64, catalog::RUN_SECONDS as f64, false);
    let (mut layer_ms, mut out_dir, mut json_out) =
        (DEFAULT_LAYER_MS, PathBuf::from("benchmark/out"), None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad("between 0 and 120"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--layers-ms" => layer_ms = value.parse().map_err(|_| bad("a whole number"))?,
            "--out" => out_dir = PathBuf::from(value),
            "--json-out" => json_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if catalog::workload(&workload).is_none() {
        let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            names.join(", ")
        ));
    }
    Ok(RunArgs {
        workload,
        env: Env {
            seed,
            seconds,
            traced: trace,
        },
        layer_ms,
        out_dir,
        json_out,
    })
}

fn write_trace(
    path: &Path,
    workload: &str,
    tracer: &Tracer,
    run: &WorkloadRun,
) -> std::io::Result<()> {
    let mut out = String::new();
    spans::render_jsonl(&mut out, workload, tracer.spans());
    for p in &run.pipelines {
        let _ = writeln!(
            out,
            "{{\"kind\": \"probe\", \"workload\": \"{workload}\", \"token\": {}, \"due_us\": {}, \
             \"submit_us\": {}, \"sent_us\": {}, \"reflect_us\": {}, \"pickup_us\": {}, \"completion_us\": {}}}",
            p.token, p.due_us, p.submit_us, p.sent_us, p.released_us, p.matched_us, p.completed_us
        );
    }
    for t in &run.phase_totals {
        let _ = writeln!(
            out,
            "{{\"kind\": \"phase_total\", \"workload\": \"{workload}\", \"segment\": {}, \"name\": \"{}\", \
             \"calls\": {}, \"total_ns\": {}}}",
            t.segment, t.name, t.calls, t.total_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

fn run_workload(args: &RunArgs) -> Result<Report, String> {
    let env = args.env;
    let mut report = Report {
        workload: args.workload.clone(),
        seed: env.seed,
        seconds: env.seconds,
        traced: env.traced,
        ..Report::default()
    };
    let mut tracer = Tracer::new(env.traced);
    let mut scratch = Scratch::new();
    let awake = keepawake::KeepAwake::start();
    let io_err = |e: std::io::Error| format!("{}: {e}", args.workload);
    let observed = args.workload == "reflector_observed";
    let run = match args.workload.as_str() {
        "reflector_flood" | "reflector_observed" => {
            workloads::flood::run(&env, observed, &mut report, &mut tracer, &mut scratch)
        }
        "chain_flood" => workloads::chain::run(&env, &mut report, &mut tracer, &mut scratch),
        "paced_rtt" => workloads::paced::run(&env, &mut report, &mut tracer, &mut scratch),
        "lossy_count" => workloads::lossy::run(&env, &mut report, &mut tracer, &mut scratch),
        other => return Err(format!("unknown workload {other:?}")),
    }
    .map_err(io_err)?;
    // The layer timings are the same pass in every workload's run.
    drop(awake);
    workloads::summarize(&mut report, &env, &run);
    if env.traced {
        let budget = layers::Budget {
            per_timing: Duration::from_millis(args.layer_ms),
        };
        let layers_span = tracer.begin("layers", 0, -1);
        layers::run(&mut report, budget, env.seed, &mut scratch).map_err(io_err)?;
        tracer.end(layers_span);
        if let Some(share) = layers::attributed_share(&report, observed) {
            report.set("ledger.reactor_attributed_share", share, "ratio");
        }
        let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
        write_trace(&path, &args.workload, &tracer, &run).map_err(io_err)?;
        eprintln!("trace written to {}", path.display());
    }
    Ok(report)
}

/// `collect <results.json> key=value... -- run.json...`: the per-workload
/// run files of one `run.sh` pass, with the box's description, as one
/// `results.json`.
fn collect(args: &[String]) -> Result<(), String> {
    let (out, rest) = args.split_first().ok_or(USAGE)?;
    let split = rest.iter().position(|a| a == "--").ok_or(USAGE)?;
    let mut doc = String::from("{\n");
    for pair in &rest[..split] {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("{pair:?} is not key=value"))?;
        let _ = writeln!(doc, "  \"{key}\": \"{}\",", json::escape(value));
    }
    let _ = writeln!(doc, "  \"sysio_backend\": \"{}\",", cde_sysio::backend());
    doc.push_str("  \"runs\": [\n");
    let runs = &rest[split + 1..];
    for (i, path) in runs.iter().enumerate() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(doc, "    {}{comma}", text.trim());
    }
    doc.push_str("  ]\n}\n");
    std::fs::write(out, doc).map_err(|e| format!("{out}: {e}"))
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.into());
    };
    let rows = compare::compare(&load_json(a)?, &load_json(b)?);
    if rows.is_empty() {
        return Err("the two files share no untraced workload run".into());
    }
    print!("{}", compare::render(&rows));
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Breach))
}

fn load_json(path: &String) -> Result<json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `spread run.json...`: the steadiness check over several single runs.
fn spread_files(args: &[String]) -> Result<bool, String> {
    let runs = args.iter().map(load_json).collect::<Result<Vec<_>, _>>()?;
    let rows = compare::spreads(&runs);
    if rows.is_empty() {
        return Err("need at least two untraced runs of one workload".into());
    }
    print!("{}", compare::render_spreads(&rows));
    Ok(rows.iter().all(|r| r.spread <= r.bound))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("describe") => {
            print!("{}", catalog::benchmark_json(catalog::RUN_SECONDS));
            Ok(true)
        }
        Some("compare") => compare_files(&args[1..]),
        Some("collect") => collect(&args[1..]).map(|()| true),
        Some("spread") => spread_files(&args[1..]),
        Some(_) => parse_run_args(&args).and_then(|run| {
            let report = run_workload(&run)?;
            print!("{}", report.render_lines());
            if let Some(path) = &run.json_out {
                std::fs::write(path, report.to_json() + "\n")
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            // The driver reads the last line of standard output.
            println!("{}", report.result_line()?);
            Ok(report.correct())
        }),
        None => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("cde-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
