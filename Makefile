# Convenience targets; everything builds offline from vendored deps
# (third_party/, see README "Offline builds").

.PHONY: build test test-fallback chaos bench-smoke benchmark-smoke bench-json bench-check timing-check analyze-smoke serve-smoke forensics-smoke lint

build:
	cargo build --release --locked

test:
	cargo test -q --workspace --locked

# The portable cde-sysio backends (one-datagram send/recv loop, bounded
# park instead of ppoll) are what every non-Linux target runs and what
# nothing on a Linux box exercises unless forced: run the sysio suite
# and the reactor suites that lean on the wait with the fallback on.
test-fallback:
	CDE_SYSIO_FALLBACK=1 cargo test -q --locked -p cde-sysio
	CDE_SYSIO_FALLBACK=1 cargo test -q --locked -p cde-engine \
		--test reactor_correlation --test reactor_shard --test reactor_wait

# Run every criterion bench exactly once — a fast correctness pass over
# the bench harnesses (the zero-alloc wire bench asserts its property).
bench-smoke:
	cargo bench -p cde-bench --locked -- --test

# The repo benchmark (benchmark/, BENCHMARK.json) is what a performance
# change is judged on, and it is its own cargo package that `build` and
# `test` never see: run its harness's unit tests, then one short
# workload end to end. run.sh exits non-zero unless every self-check of
# the run is ok. Both share the repository's target directory, so the
# dependencies build once.
benchmark-smoke:
	CARGO_TARGET_DIR=target cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml
	bash benchmark/run.sh --only paced_rtt --seconds 4

# Blocking-vs-reactor campaign throughput at 1k/10k probes over real
# loopback UDP, plus the 1/2/4/8-shard scaling curve; writes
# BENCH_engine.json (probes/sec, p50/p99 latency, per-shard throughput)
# plus BENCH_engine_metrics.json (final reactor metrics-registry
# snapshot: engine counters, health gauges, pool/limiter/telemetry).
bench-json:
	cargo run --release --locked -p cde-bench --bin engine_bench -- \
		BENCH_engine.json --metrics-out BENCH_engine_metrics.json

# Both chaos suites: the hermetic FaultyTransport tests and the live
# loopback reactor fault-layer tests. Override the seed with
# CDE_CHAOS_SEED=<n>; failures print the seed to replay.
chaos:
	cargo test --release --locked --test chaos
	cargo test --release --locked -p cde-engine --test reactor_chaos

# Capture → analyze round trip: run the live census with telemetry
# JSONL capture, then feed the trace through the offline analyzer.
# `--check` fails unless at least one campaign completed with clean
# (non-retransmit) RTT samples.
analyze-smoke:
	cargo run --release --locked --example live_loopback_census -- \
		--telemetry-jsonl target/census_telemetry.jsonl
	cargo run --release --locked -p cde-insight --bin cde-analyze -- \
		target/census_telemetry.jsonl --check
	cargo run --release --locked -p cde-insight --bin cde-analyze -- \
		target/census_telemetry.jsonl --json --check > target/census_analysis.json

# The campaign daemon end to end: start cde-serve, drive it with curl
# (tenants, submit, status, /metrics), kill -9 it mid-campaign and
# resume from the checkpoint. Override the seed with CDE_CHAOS_SEED=<n>.
serve-smoke:
	scripts/serve_smoke.sh

# Flight-recorder forensics round trip: run the chaos census with the
# flight recorder on, dump the rings, and reconcile the dump into the
# per-ingress fate table. The seeded chaos plan plants *query*-direction
# loss only, so the dump must carry query-side wire evidence and zero
# reply drops; `--check` additionally enforces the versioned header,
# zero skipped lines and >=95% unanswered-probe coverage.
forensics-smoke:
	CDE_CHAOS_SEED=$${CDE_CHAOS_SEED:-4242} cargo run --release --locked --example live_loopback_census -- \
		--chaos --flight-dump target/census_flight.jsonl
	cargo run --release --locked -p cde-insight --bin cde-analyze -- \
		target/census_flight.jsonl --forensics --check | tee target/census_forensics.txt
	! grep -q 'wire observations: 0 query_dropped' target/census_forensics.txt
	grep -q ', 0 reply_dropped' target/census_forensics.txt

# Regenerate the engine benchmark and gate on the committed baseline:
# fails when the reactor-vs-blocking speedup drops more than 25%, the
# insight digests-on/off ratio regresses, the pulse-on/pulse-off health
# sampling ratio regresses, the flight-recorder on/off ratio regresses,
# per-shard scaling efficiency falls more
# than 10% below the baseline curve, (on a multi-core host) 2 shards
# deliver less than 1.6x one shard, or the adaptive timing loop stops
# beating the static plan on time-to-exact-count (see timing-check).
bench-check:
	cargo run --release --locked -p cde-bench --bin engine_bench -- \
		BENCH_engine.fresh.json
	cargo run --release --locked -p cde-bench --bin bench_check -- \
		BENCH_engine.json BENCH_engine.fresh.json

# The time-to-exact-count lane alone: static fixed-budget enumeration
# vs the adaptive loop (per-ingress RTO + sequential stopping) under a
# fixed-seed 30% Gilbert-Elliott fault plan. Fails unless both runs
# recover the planted cache count exactly, the adaptive run stays
# measurably cheaper in wall-clock and retransmits, and neither ratio
# regresses past the committed baseline's.
timing-check:
	cargo run --release --locked -p cde-bench --bin engine_bench -- \
		BENCH_engine.timing.fresh.json --timing-only
	cargo run --release --locked -p cde-bench --bin bench_check -- \
		BENCH_engine.json BENCH_engine.timing.fresh.json --timing-only

lint:
	cargo clippy --workspace --all-targets --locked -- -D warnings
	cargo fmt --all -- --check
