# Development shortcuts mirroring .github/workflows/ci.yml.

# Run the full CI pipeline locally.
ci: fmt-check clippy doc build test test-shims examples test-kernels check-width golden-check

fmt:
    cargo fmt

fmt-check:
    cargo fmt --check

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# API docs with broken intra-doc links treated as errors.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

build:
    cargo build --release

# Tier-1 verify: the whole workspace's tests.
test:
    cargo test -q

# The in-repo shims' own tests (JSON parser, serde derive, proptest runner,
# RNGs): they are not default members, so `just test` does not reach them.
test-shims:
    cargo test -q -p proptest -p serde_json -p serde -p rand -p rand_distr

# Every example, as CI's Tests step runs them: six registry examples, one per
# registry family, each plugging in an out-of-crate implementation (arbiter,
# share policy, scheduler with snapshot state, offload policy, telemetry sink,
# platform), then the four builtin schedulers compared as one cluster with a
# dedicated accelerator per camera, then the three walkthroughs (one stepped
# session, a drift recovery side by side, the accelerator sizing sweep).
examples:
    cargo run --release --example cluster
    cargo run --release --example cross_camera
    cargo run --release --example checkpoint_resume
    cargo run --release --example edge_cloud
    cargo run --release --example telemetry
    cargo run --release --example custom_platform
    cargo run --release --example scheduler_comparison
    cargo run --release --example quickstart
    cargo run --release --example drift_recovery
    cargo run --release --example accelerator_sizing

# The kernel crates' tests in the release profile: `just test` runs them at
# the test profile's opt-level 1, which does not vectorise loops, so the GEMM
# register tile, the MX conversion kernel, the frame-noise kernel and the loss
# `exp` kernel are scalar; this compares the vectorised fused-multiply-add
# tile, conversion loops, Box–Muller lanes and `exp` lanes production runs
# with their references. `--include-ignored` adds the exhaustive sweep of the
# loss `exp` kernel against `f32::exp` (every f32 from +0.0 and -0.0 down to
# -inf, 2,139,095,042 inputs, ≈ 15 s on two cores), which the test profile
# ignores.
test-kernels:
    cargo test --release -p dacapo-mx -p dacapo-tensor -p dacapo-dnn -p dacapo-datagen -- --include-ignored

# What a kernel compiled to in the release benchmark binary: per matching
# symbol, the instruction count and the xmm/ymm/zmm, vcvt*, vmul* and lane
# shuffle (vperm*/vunpck*/vshuf*) tallies, e.g. `just asm quantize_into`.
asm SYMBOL:
    scripts/asm.sh {{SYMBOL}}

# What the GEMM's kernels shipped as, as CI checks it, in the release
# benchmark binary: on an x86-64 host `transpose_blocks` must shuffle lanes
# (a scalar transposition gives the same bits, so no test sees it), and on a
# host whose /proc/cpuinfo lists avx512f both tile symbols must use `zmm`
# (the x86_64 table of .cargo/config.toml turns off LLVM's 256-bit
# preference, which no `cfg` test can see). It prints the tallies either way.
check-width:
    scripts/check-width.sh

# The frozen repo benchmark (`benchmark/`, its own workspace) against this
# tree: its own tests, then the barrier-heavy workload — share + offload +
# churn at 5 s windows, where `core::cluster::exchange_window` and the
# columnar sample buffer do the work. Also the API-compatibility check: the
# benchmark may not be edited, so a break against it shows here. Extra
# flags pass through, e.g. `just bench-barrier --seed 3 --seconds 15 --trace 1`
# for a comparable traced run (the default is the non-comparable smoke tier).
bench-barrier *ARGS='--quick':
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload fleet-barrier {{ARGS}}

# The frozen benchmark's feature-free workload against this tree: 96
# cameras on 4 accelerators with no share / churn / offload policy and no
# observer, i.e. the cluster executor with no barrier stages — one
# unbounded window, sessions built per accelerator as it is first advanced
# (`peak_rss_mb` is the number that notices eager admission). Extra flags
# pass through, e.g. `just bench-steady --seed 3 --seconds 15 --trace 0`.
bench-steady *ARGS='--quick':
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload fleet-steady {{ARGS}}

# The frozen benchmark's observed workload against this tree: the steady
# fleet again, its measured repetitions run through a `TelemetryRecorder`
# with both file sinks — still one unbounded window, each accelerator loop
# taking its own window samples, and the full telemetry sink path — and
# checked against the unobserved warm-up. Extra flags pass through, e.g.
# `just bench-observed --seed 3 --seconds 15 --trace 0`.
bench-observed *ARGS='--quick':
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload fleet-observed {{ARGS}}

# The frozen benchmark's paper-default workload against this tree: four
# full-length `platform("dacapo")` sessions whose arithmetic is all MX (MX9
# retraining, MX6 measurement), i.e. `dacapo_mx`'s conversion kernel and
# `tensor::quant` under the benchmark's determinism check. Extra flags pass
# through, e.g. `just bench-paper --seed 3 --seconds 15 --trace 1`.
bench-paper *ARGS='--quick':
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload solo-paper {{ARGS}}

# Cluster execution demo (custom arbiter, admission control) plus the
# contention sweep; its per-point host times go to
# results/BENCH_cluster_contention.json.
cluster:
    cargo run --release --example cluster
    cargo run --release -p dacapo-bench --bin cluster_contention -- --quick

# Cross-camera sharing demo (custom policy, four policies compared) plus the
# overlap x policy sweep; its per-point host times go to
# results/BENCH_cross_camera.json.
cross-camera:
    cargo run --release --example cross_camera
    cargo run --release -p dacapo-bench --bin cross_camera -- --quick

# Checkpoint/restore + elastic membership demo (stateful custom scheduler
# snapshotted by name) plus the churn sweep; its per-profile host times go to
# results/BENCH_elastic_churn.json.
churn:
    cargo run --release --example checkpoint_resume
    cargo run --release -p dacapo-bench --bin elastic_churn -- --quick

# Edge-cloud offload demo (custom offload policy registered by name) plus
# the uplink x policy sweep; its per-point host times go to
# results/BENCH_edge_cloud.json.
edge-cloud:
    cargo run --release --example edge_cloud
    cargo run --release -p dacapo-bench --bin edge_cloud -- --quick

# Observability demo (custom CSV sink registered by name) plus the traced
# smoke run.
trace: trace-smoke
    cargo run --release --example telemetry

# The contention sweep's smallest point traced through both file sinks, as
# CI's "Traced smoke run" does; leaves results/BENCH_trace.json and
# results/BENCH_metrics.jsonl behind.
trace-smoke:
    cargo run --release -p dacapo-bench --bin cluster_contention -- --smoke --trace results/BENCH_trace.json --metrics results/BENCH_metrics.jsonl

# The CI smoke tier: all 17 experiments of `dacapo_bench::EXPERIMENTS` at
# their smallest meaningful size in one process, so results/*.json is fully
# populated in about a second.
bench-smoke:
    cargo run --release -p dacapo-bench --bin run_all -- --smoke

# The release-profile half of the golden pin (`cargo test` is the debug
# half): what the smoke tier and the traced smoke run write must be, byte
# for byte, the fixtures and the pinned sink files under
# tests/fixtures/golden/telemetry/, which the every-hook cluster and the
# standalone session write from a release-built test.
golden-check: bench-smoke trace-smoke
    for golden in tests/fixtures/golden/*.json; do cmp "$golden" "results/$(basename "$golden")" || exit 1; done
    cargo test --release --test integration_telemetry the_file_sinks_write_the_pinned_bytes
    cmp tests/fixtures/golden/telemetry/cluster_contention.trace.json results/BENCH_trace.json
    cmp tests/fixtures/golden/telemetry/cluster_contention.metrics.jsonl results/BENCH_metrics.jsonl

# Regenerate tests/fixtures/golden/ from the smoke tier — only for a change
# that means to move an experiment's output, and CHANGES.md says which and why.
golden: bench-smoke
    for bin in crates/bench/src/bin/*.rs; do name=$(basename "$bin" .rs); [ "$name" = run_all ] || cp "results/$name.json" "tests/fixtures/golden/$name.json" || exit 1; done

# Regenerate every figure/table quickly.
figures:
    cargo run --release -p dacapo-bench --bin run_all -- --quick

# Per-crate non-test code-line counts, as used in CHANGES.md tables (the
# counting rule is in the script, which also runs without `just`); file
# arguments give one count per file, e.g. `just loc crates/tensor/src/ops.rs`.
loc *FILES:
    scripts/loc.sh {{FILES}}

# The before/after table of a performance claim: builds the frozen benchmark
# from PARENT and from this tree side by side (outside the repository, at
# paths of one length), runs alternating `--seconds 15 --trace 0` pairs of
# one workload over seeds 1..PAIRS, and prints per-metric medians,
# quartiles, wins and whether `mean_accuracy_pct` matched per seed, e.g.
# `just pairs HEAD~1 fleet-steady`. WORKLOAD `all` runs the four workloads
# of BENCHMARK.json in turn on the same two builds, one table each.
pairs PARENT WORKLOAD PAIRS='10':
    scripts/pairs.sh {{PARENT}} {{WORKLOAD}} {{PAIRS}}
