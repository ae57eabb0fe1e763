#!/usr/bin/env sh
# Byte-identity check for refactors: do the figures, ablations and soak
# campaigns print exactly what they printed at <rev>?
#
#   scripts/same_outputs.sh <rev>
#
# Builds <rev> in a git worktree under target/same-outputs/ (its own
# target dir, --offline) and the working tree as usual, then runs on
# both:
#   - every fig* and ablation_* binary at ACC_JOBS=1 and ACC_JOBS=4;
#   - soak --rounds 256 and soak --rounds 64 --coll, at both job counts.
# Each run gets a fresh cwd (soak writes soak-repro.txt to its cwd; that
# file is compared too). Stdout and exit status are compared per run;
# the script lists the runs that differ and exits nonzero on any
# difference. About 3 min on a 2-vCPU host once both trees are built.
# Not part of check.sh: it needs a second build.
set -eu

cd "$(dirname "$0")/.."
rev=${1:?usage: scripts/same_outputs.sh <rev>}
root=$(pwd)
work=$root/target/same-outputs
tree=$work/tree

cleanup() {
    git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
}
cleanup
trap cleanup EXIT
trap 'exit 130' INT TERM

echo "== building $rev in $tree"
git worktree add --detach --force "$tree" "$rev" > /dev/null
cargo build --release --offline -q -p acc-bench --bins \
    --manifest-path "$tree/Cargo.toml" --target-dir "$work/target"
echo "== building the working tree"
cargo build --release --offline -q -p acc-bench --bins

bins=$(cd crates/bench/src/bin && ls fig*.rs ablation_*.rs | sed 's/\.rs$//')
rm -rf "$work/out" "$work/cwd"

# run <side> <bin dir> <name> <jobs> <label> [args...]: stdout, then the
# exit status and any soak-repro.txt, into $work/out/<side>/<label>.
run() {
    side=$1 dir=$2 name=$3 jobs=$4 label=$5
    shift 5
    out=$work/out/$side/$label
    cwd=$work/cwd/$side/$label
    mkdir -p "$(dirname "$out")" "$cwd"
    status=0
    (cd "$cwd" && ACC_JOBS=$jobs "$dir/$name" "$@") > "$out" 2> /dev/null || status=$?
    echo "exit status $status" >> "$out"
    if [ -f "$cwd/soak-repro.txt" ]; then
        cat "$cwd/soak-repro.txt" >> "$out"
    fi
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
done

if diff -rq "$work/out/base" "$work/out/head"; then
    echo "same outputs: $(ls "$work/out/head" | wc -l) runs byte-identical to $rev"
else
    echo "outputs differ from $rev (full outputs under $work/out)"
    exit 1
fi
