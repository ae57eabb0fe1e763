#!/usr/bin/env sh
# Byte-identity check for refactors: do the figures, ablations, soak
# campaigns, examples and the benchmark's simulated outputs match what
# they were at <rev>?
#
#   scripts/same_outputs.sh <rev>
#
# Exports <rev> with `git archive` into target/same-outputs/tree and
# builds it there (its own target dir, --offline); builds the working
# tree as usual. The acc_benchmark package is a workspace of its own,
# so it is built for each side into target/same-outputs/bench-<side>.
# Then runs on both:
#   - every fig* and ablation_* binary at ACC_JOBS=1 and ACC_JOBS=4;
#   - soak --rounds 256 and soak --rounds 64 --coll, at both job counts;
#   - the root examples (examples/*.rs) and acc-bench's hang_demo
#     example (the deadline, hang-report and repro path), once each;
#   - acc_benchmark --seconds 1 --trace 0 on every workload at seeds 7
#     and 11, keeping its exit status and the results file's
#     sim_fingerprint and sim_ms (host times are noise, not outputs).
# Each run gets a fresh cwd. Stdout, stderr (hang trace tails, and
# panic messages with the hang report's wait-state lines, go there),
# exit status and every file the run writes to its cwd (soak's
# soak-repro.txt, say) are compared per run; the same tree run twice
# gives the same stderr for every run, so none is left out. The
# benchmark's own output is host timing, so only its results fields
# are kept;
# the script lists the runs that differ, shows the benchmark fields that
# differ, and exits nonzero on any difference. About 6 min on a 2-vCPU
# host with warm workspace builds, the two acc_benchmark builds (about
# 1 min each) included. Not part of check.sh: it needs second builds.
set -eu

cd "$(dirname "$0")/.."
rev=${1:?usage: scripts/same_outputs.sh <rev>}
root=$(pwd)
work=$root/target/same-outputs
tree=$work/tree
bench=crates/bench/src/bin/acc_benchmark
workloads="paper coll_latency coll_bandwidth faults"

echo "== building $rev in $tree"
rm -rf "$tree"
mkdir -p "$tree"
git archive "$rev" | tar -x -C "$tree"
cargo build --release --offline -q -p acc -p acc-bench --bins --examples \
    --manifest-path "$tree/Cargo.toml" --target-dir "$work/target"
cargo build --release --offline -q \
    --manifest-path "$tree/$bench/Cargo.toml" --target-dir "$work/bench-base"
echo "== building the working tree"
cargo build --release --offline -q -p acc -p acc-bench --bins --examples
cargo build --release --offline -q \
    --manifest-path "$bench/Cargo.toml" --target-dir "$work/bench-head"

bins=$(cd crates/bench/src/bin && ls fig*.rs ablation_*.rs | sed 's/\.rs$//')
examples="$(cd examples && ls *.rs | sed 's/\.rs$//') hang_demo"
rm -rf "$work/out" "$work/cwd"

# run <side> <bin dir> <name> <jobs> <label> [args...]: stdout, then the
# exit status and every file written to the run's cwd, into
# $work/out/<side>/<label>; stderr into $work/out/<side>/<label>.stderr.
run() {
    side=$1 dir=$2 name=$3 jobs=$4 label=$5
    shift 5
    out=$work/out/$side/$label
    cwd=$work/cwd/$side/$label
    mkdir -p "$(dirname "$out")" "$cwd"
    status=0
    (cd "$cwd" && ACC_JOBS=$jobs "$dir/$name" "$@") > "$out" 2> "$out.stderr" || status=$?
    echo "exit status $status" >> "$out"
    (cd "$cwd" && find . -type f | sort) | while read -r f; do
        echo "file $f:" >> "$out"
        cat "$cwd/$f" >> "$out"
    done
}

# bench <side> <workload> <seed>: acc_benchmark's exit status and the
# results file's sim_fingerprint and sim_ms lines, into
# $work/out/<side>/bench-<workload>-seed<seed>.
bench() {
    side=$1 workload=$2 seed=$3
    out=$work/out/$side/bench-$workload-seed$seed
    dir=$work/cwd/$side/bench-$workload-seed$seed
    mkdir -p "$dir"
    status=0
    "$work/bench-$side/release/acc_benchmark" --workload "$workload" --seed "$seed" \
        --seconds 1 --trace 0 --out "$dir" > /dev/null 2>&1 || status=$?
    echo "exit status $status" > "$out"
    cat "$dir"/*.json 2> /dev/null | grep -E '"sim_fingerprint"|"sim_ms": \{' >> "$out" || true
}

for side in base head; do
    if [ "$side" = base ]; then bindir=$work/target/release; else bindir=$root/target/release; fi
    echo "== running the $side binaries"
    for j in 1 4; do
        for bin in $bins; do
            run "$side" "$bindir" "$bin" "$j" "$bin.j$j"
        done
        run "$side" "$bindir" soak "$j" "soak-256.j$j" --rounds 256
        run "$side" "$bindir" soak "$j" "soak-64-coll.j$j" --rounds 64 --coll
    done
    for ex in $examples; do
        run "$side" "$bindir/examples" "$ex" 1 "example-$ex"
    done
    echo "== running the $side benchmark"
    for w in $workloads; do
        for seed in 7 11; do
            bench "$side" "$w" "$seed"
        done
    done
done

if diff -rq "$work/out/base" "$work/out/head"; then
    echo "same outputs: $(ls "$work/out/head" | wc -l) runs byte-identical to $rev"
else
    for f in "$work/out/head"/bench-*; do
        name=$(basename "$f")
        diff "$work/out/base/$name" "$f" > /dev/null || {
            echo "-- $name differs:"
            diff "$work/out/base/$name" "$f" || true
        }
    done
    echo "outputs differ from $rev (full outputs under $work/out)"
    exit 1
fi
