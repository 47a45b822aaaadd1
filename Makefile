# Convenience targets; everything builds offline from vendored deps
# (third_party/, see README "Offline builds").

.PHONY: build test test-fallback experiments-check chaos benchmark-smoke analyze-smoke serve-smoke forensics-smoke lint doc-check

build:
	cargo build --release --locked

test:
	cargo test -q --workspace --locked

# The portable cde-sysio backends (one-datagram send/recv loop, bounded
# park instead of ppoll) are what every non-Linux target runs and what
# nothing on a Linux box exercises unless forced: run the sysio suite,
# the engine's unit tests (the batched resolver serving without
# coalesced receives), the reactor suites that lean on the wait, the
# single-time-base suite (one clock stamp per datagram, as the portable
# receive reads one per call) and the whole live chain (shard, resolver
# and authority loops, each waiting on its own poller) with the
# fallback on.
test-fallback:
	CDE_SYSIO_FALLBACK=1 cargo test -q --locked -p cde-sysio
	CDE_SYSIO_FALLBACK=1 cargo test -q --locked -p cde-engine --lib \
		--test reactor_correlation --test reactor_shard --test reactor_wait \
		--test reactor_insight --test live_loopback

# Every simulator table at the default seed and scale, diffed byte for
# byte against the committed stdout of `experiments all`. A change that
# must not move a table (a performance or refactoring change) leaves it
# identical; a change that means to move one regenerates
# tests/golden/experiments_all.txt and says why. ROADMAP item 1's
# `experiments --json --check` (per-figure values, paper checkpoints)
# replaces this byte diff when it lands.
experiments-check:
	cargo run --release --locked -q -p cde-bench --bin experiments -- all 2>/dev/null \
		| diff -u tests/golden/experiments_all.txt -

# The repo benchmark (benchmark/, BENCHMARK.json) is what a performance
# change is judged on, and it is its own cargo package that `build` and
# `test` never see: run its harness's unit tests, then five short
# workloads end to end. run.sh exits non-zero unless every self-check of
# the run is ok. `paced_rtt` sends one datagram per call; the
# `reflector_flood` run drives segmented sends on both ends, checked by
# its exactly-once and served-equals-sent self-checks; the `chain_flood`
# run drives LoopbackResolver's batched serving (coalesced receives,
# segmented replies), checked by its honey-fetch and every-probe-
# accounted self-checks; the `reflector_observed` run drives the flood
# with all four observability tiers on (batched telemetry pushes,
# flight records, exemplars, digests) under the same exactly-once
# checks; the `lossy_count` run drives `enumerate_sequential` (the
# cde-core Enumerator) under bursty loss and checks that every
# enumeration returns its planted cache count (4 s still completes one
# cycle of four). All share the repository's target directory, so the
# dependencies build once.
benchmark-smoke:
	CARGO_TARGET_DIR=target cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml
	bash benchmark/run.sh --only paced_rtt --seconds 4
	bash benchmark/run.sh --only reflector_flood --seconds 4
	bash benchmark/run.sh --only reflector_observed --seconds 4
	bash benchmark/run.sh --only chain_flood --seconds 4
	bash benchmark/run.sh --only lossy_count --seconds 4

# Both chaos suites: the hermetic FaultyAccess tests and the live
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

lint:
	cargo clippy --workspace --all-targets --locked -- -D warnings
	cargo fmt --all -- --check

# Rustdoc with every warning an error (broken or private intra-doc
# links, redundant link targets) over the first-party crates. The
# vendored third_party/ crates are excluded: their docs are not ours to
# fix.
doc-check:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --locked \
		--exclude bytes --exclude crossbeam \
		--exclude parking_lot --exclude proptest --exclude rand \
		--exclude serde --exclude serde_derive
