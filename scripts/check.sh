#!/usr/bin/env sh
# Tier-1 gate: everything CI runs, runnable locally in one shot.
# Fails fast on the first broken step.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== cargo build --release"
# --workspace: the root manifest is also the umbrella package, and a
# bare `cargo build` would build only it — leaving the acc-lint and
# bench_wallclock binaries the later steps execute stale.
cargo build --release --workspace

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
cargo test -q --workspace

echo "== cargo doc --workspace (deny warnings)"
# --workspace for the same reason as the build: a bare `cargo doc`
# documents only the umbrella package, so broken intra-doc links in
# the member crates would go unnoticed.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== bench_wallclock --smoke --check (gating: per-point noise bounds)"
# ACC_JOBS=2 forces the threaded work-queue path even on one core, so
# the serial-vs-parallel determinism assert inside the binary always
# compares both executor code paths. --check gates: each point is
# compared against the median of the last five same-mode
# BENCH_history.jsonl entries and fails past ACC_BENCH_TOLERANCE_PCT
# (default 25%). ACC_BENCH_GATE=off reports without gating on
# known-noisy hosts.
ACC_JOBS=2 ./target/release/bench_wallclock --smoke --check

echo "== ablation_collectives --smoke (executor-fanned collective matrix)"
# Smoke sweep of the collective engine's full operation x algorithm x
# mode matrix; ACC_JOBS=2 for the same two-code-path reason as above.
ACC_JOBS=2 ./target/release/ablation_collectives --smoke > /dev/null

echo "== ablation_coll_faults --smoke (collective recovery-policy grid)"
# Smoke sweep of the fault-recovery grid: every collective survives a
# mid-schedule card kill under all three recovery policies.
ACC_JOBS=2 ./target/release/ablation_coll_faults --smoke > /dev/null

echo "== ablation_fabric_faults --smoke (multi-switch fault-tolerance grid)"
# Smoke sweep of the fabric grid: trunk outages and switch kills on a
# fat-tree, verified bit-correct under all three recovery policies.
ACC_JOBS=2 ./target/release/ablation_fabric_faults --smoke > /dev/null

echo "== soak --rounds 256 (FFT/sort drivers under seeded fault plans)"
# 256 seeded fault plans (loss, jitter, stalls, outages, card deaths and
# reconfigurations) against the classic FFT and sort cells, every run
# verified and audited. About 9 s on a 2-vCPU host. A failure
# minimizes its plan into soak-repro.txt (replay with
# `soak --repro soak-repro.txt`) and exits nonzero.
ACC_JOBS=2 ./target/release/soak --rounds 256 > /dev/null

echo "All tier-1 checks passed."
