#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--only <workload>]
#       Runs every workload (or one), each in a fresh child process,
#       prints every metric as `workload metric value unit`, self-checks
#       the outputs and writes benchmark/out/results.json. With --trace
#       each workload is run a second time, traced, with the full-length
#       layer timings; span files land in benchmark/out/.
#
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1
#       One run of one workload; the last line of standard output is the
#       JSON result (the form BENCHMARK.json's `command` is run in).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/cde-benchmark"

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$bin" "$@"
    fi
done

seed=12
seconds=22
trace=0
only=""
while (($#)); do
    case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --only) only="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

out="benchmark/out"
mkdir -p "$out"
workloads=(reflector_flood reflector_observed chain_flood paced_rtt lossy_count)
if [[ -n "$only" ]]; then
    workloads=("$only")
fi
status=0
runs=()
for w in "${workloads[@]}"; do
    # `sed '$d'`: the metric lines, without the driver's JSON line.
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out "$out" --json-out "$out/run-$w.json" | sed '$d' || status=1
    runs+=("$out/run-$w.json")
    if ((trace)); then
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 --layers-ms 500 \
            --out "$out" --json-out "$out/run-$w-traced.json" | sed '$d' || status=1
        runs+=("$out/run-$w-traced.json")
    fi
done
"$bin" collect "$out/results.json" \
    "seed=$seed" "nproc=$(nproc)" "kernel=$(uname -sr)" \
    "git_commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
    -- "${runs[@]}"
echo "results written to $out/results.json" >&2
exit "$status"
