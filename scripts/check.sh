#!/usr/bin/env sh
# Tier-1 gate: everything CI runs, runnable locally in one shot.
# Fails fast on the first broken step.
set -eu
# Every cargo step that resolves dependencies runs --locked: a change to
# a crate's dependencies must fail here, not silently rewrite a lockfile
# (acc_benchmark's own Cargo.lock lists every path crate's dependencies).

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings)"
cargo clippy -q --locked --workspace --all-targets -- -D warnings

echo "== cargo build --release"
# --workspace: the root manifest is also the umbrella package, and a
# bare `cargo build` would build only it — leaving the acc-lint,
# acc-verify, ablation and soak binaries the later steps execute stale.
cargo build --release --locked --workspace

echo "== acc-lint (static determinism/wire-safety invariants)"
./target/release/acc-lint

echo "== acc-verify --schedules --smoke (static collective-schedule proofs, p <= 64)"
# Proves leg pairing / deadlock-freedom, reduce conservation, failover
# tag headroom and CLB admissibility for every algorithm x op x p cell
# without running the engine. The nightly job extends this to p=4096.
./target/release/acc-verify --schedules --smoke --max-p 64 --quiet

echo "== cargo test --workspace"
# --workspace for the same reason as the build: a bare `cargo test`
# tests only the umbrella package's tests/, skipping every crate's unit
# tests and crates/*/tests suites (the wire-codec, scheduler and verify
# properties among them). About 5 min on a 2-vCPU host, debug build of
# all 71 test binaries included.
cargo test -q --locked --workspace

echo "== cargo test acc_benchmark (its own workspace)"
# The benchmark package is a workspace of its own, so the --workspace
# steps above neither build nor test it: a sim/core API change that
# breaks it would otherwise surface only when the benchmark runs. About
# 70 s to build and 2 s to test on a 2-vCPU host.
cargo test --release --offline --locked --manifest-path crates/bench/src/bin/acc_benchmark/Cargo.toml

# One-second smoke run of the command BENCHMARK.json declares, on one
# workload: the benchmark verifies every run it times, and its last
# output line is the result record, which must report `"correct": true`.
# No wall time is gated here; timing regressions are judged by
# `acc_benchmark compare` over paired runs of two revisions.
bench_smoke() {
    out=$(cargo run --release --offline --locked --quiet \
        --manifest-path crates/bench/src/bin/acc_benchmark/Cargo.toml -- \
        --workload "$1" --seconds 1 --trace 0)
    last=$(printf '%s\n' "$out" | tail -n 1)
    case "$last" in
    '{"correct": true'*) ;;
    *)
        echo "acc_benchmark $1 smoke run did not report correct: $last" >&2
        exit 1
        ;;
    esac
}

echo "== acc_benchmark --workload coll_latency --seconds 1 (smoke run of the benchmark)"
# About 2 s once built.
bench_smoke coll_latency

echo "== acc_benchmark --workload paper --seconds 1 (the paper's sort and FFT, verified)"
# The sort and FFT oracles at the benchmark's scale (2^22 keys, 512^2
# matrices, p=8), which no test reaches. About 10 s once built.
bench_smoke paper

echo "== acc_benchmark --workload faults --seconds 1 (fault cells, verified)"
# The benchmark's card-kill FFT, switch-kill and frame-loss cells, the
# only place these fault paths run at the benchmark's scale.
bench_smoke faults

echo "== cargo doc --workspace (deny warnings)"
# --workspace for the same reason as the build: a bare `cargo doc`
# documents only the umbrella package, so broken intra-doc links in
# the member crates would go unnoticed.
RUSTDOCFLAGS="-D warnings" cargo doc -q --locked --no-deps --workspace

echo "== ablation_collectives --smoke (executor-fanned collective matrix)"
# Smoke sweep of the collective engine's full operation x algorithm x
# mode matrix. ACC_JOBS=2 forces the threaded work-queue path even on
# one core, so both executor code paths run.
ACC_JOBS=2 ./target/release/ablation_collectives --smoke > /dev/null

echo "== ablation_coll_faults --smoke (collective recovery-policy grid)"
# Smoke sweep of the fault-recovery grid: every collective survives a
# mid-schedule card kill under all three recovery policies.
ACC_JOBS=2 ./target/release/ablation_coll_faults --smoke > /dev/null

echo "== ablation_fabric_faults --smoke (multi-switch fault-tolerance grid)"
# Smoke sweep of the fabric grid: trunk outages and switch kills on a
# fat-tree, verified bit-correct under all three recovery policies.
ACC_JOBS=2 ./target/release/ablation_fabric_faults --smoke > /dev/null

echo "== soak --rounds 256 --coll (FFT/sort/collective drivers under seeded fault plans)"
# 256 seeded fault plans (loss, jitter, stalls, outages, card deaths and
# reconfigurations) against the classic FFT and sort cells plus one
# rotating engine collective per round, every run verified and
# audited. About 2 s on a 2-vCPU host. A failure minimizes its plan
# into soak-repro.txt (replay with `soak --repro soak-repro.txt`) and
# exits nonzero.
ACC_JOBS=2 ./target/release/soak --rounds 256 --coll > /dev/null

echo "All tier-1 checks passed."
