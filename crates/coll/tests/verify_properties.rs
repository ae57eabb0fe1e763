//! Verifier ⇔ simulator agreement, and the zero-false-negative
//! mutation property.
//!
//! The static verifier is only trustworthy if it accepts exactly what
//! the lockstep simulator accepts. Two obligations:
//!
//! 1. **Agreement on clean schedules** — every algorithm × op × p cell
//!    the builders support at p ∈ 2..=16 passes both the simulator
//!    (`run_lockstep` output == `oracle`) and the verifier.
//! 2. **Zero false negatives under mutation** — a seeded xorshift
//!    mutator breaks schedules in every way the engine could observe
//!    (dropped/duplicated/mis-sized/retargeted legs, fold-op swaps);
//!    whenever the simulator rejects a mutant (panic or wrong output),
//!    the verifier must reject it too. Pairing-visible mutations must
//!    be rejected outright.

use std::panic::{catch_unwind, AssertUnwindSafe};

use acc_coll::plan::{self, build_all, oracle, run_lockstep, RecvOp, Schedule};
use acc_coll::verify::{default_elems, verify_conservation, verify_schedules};
use acc_coll::CollectiveOp;

/// xorshift64: deterministic, seedable, no external deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn inputs_for(p: usize, elems: usize) -> Vec<Vec<f64>> {
    (0..p)
        .map(|r| (0..elems).map(|i| ((r * 31 + i * 7) % 97) as f64).collect())
        .collect()
}

/// The simulator's verdict: does lockstep execution complete and match
/// the semantic oracle?
fn simulator_accepts(op: CollectiveOp, p: usize, elems: usize, schedules: &[Schedule]) -> bool {
    let inputs = inputs_for(p, elems);
    let outputs = match catch_unwind(AssertUnwindSafe(|| run_lockstep(schedules, &inputs))) {
        Ok(outputs) => outputs,
        Err(_) => return false,
    };
    outputs == oracle(op, p, &inputs)
}

/// The verifier's verdict: structural pairing + modular conservation.
fn verifier_accepts(op: CollectiveOp, elems: usize, schedules: &[Schedule]) -> bool {
    verify_schedules(schedules).is_ok() && verify_conservation(op, elems, schedules).is_ok()
}

#[test]
fn verifier_and_simulator_agree_on_every_clean_cell() {
    let mut cells = 0;
    for p in 2..=16usize {
        for op in CollectiveOp::ALL {
            let elems = default_elems(op, p);
            for algo in op.algorithms() {
                if !plan::supports(op, algo, p, elems) {
                    continue;
                }
                let schedules = build_all(op, algo, p, elems);
                assert!(
                    simulator_accepts(op, p, elems, &schedules),
                    "simulator rejects clean {op}/{algo} p={p}"
                );
                assert!(
                    verifier_accepts(op, elems, &schedules),
                    "verifier rejects clean {op}/{algo} p={p}"
                );
                cells += 1;
            }
        }
    }
    assert!(cells > 100, "grid collapsed: only {cells} cells exercised");
}

// --- mutation machinery ----------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Mutation {
    DropSend,
    DropRecv,
    DuplicateSend,
    ShrinkRecvRange,
    RetargetSend,
    SwapRecvOp,
}

/// Apply `m` to a random legal site; `false` when the schedule set has
/// no applicable site.
fn apply(m: Mutation, schedules: &mut [Schedule], rng: &mut Rng) -> bool {
    let p = schedules.len();
    // Collect candidate (rank, round) sites so the pick is uniform-ish.
    let sites = |want_send: bool, schedules: &[Schedule]| -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for (rank, s) in schedules.iter().enumerate() {
            for (t, round) in s.rounds.iter().enumerate() {
                let n = if want_send {
                    round.sends.len()
                } else {
                    round.recvs.len()
                };
                if n > 0 {
                    v.push((rank, t));
                }
            }
        }
        v
    };
    match m {
        Mutation::DropSend => {
            let v = sites(true, schedules);
            if v.is_empty() {
                return false;
            }
            let (rank, t) = v[rng.below(v.len())];
            let sends = &mut schedules[rank].rounds[t].sends;
            let i = rng.below(sends.len());
            sends.remove(i);
            true
        }
        Mutation::DropRecv => {
            let v = sites(false, schedules);
            if v.is_empty() {
                return false;
            }
            let (rank, t) = v[rng.below(v.len())];
            let recvs = &mut schedules[rank].rounds[t].recvs;
            let i = rng.below(recvs.len());
            recvs.remove(i);
            true
        }
        Mutation::DuplicateSend => {
            let v = sites(true, schedules);
            if v.is_empty() {
                return false;
            }
            let (rank, t) = v[rng.below(v.len())];
            let sends = &mut schedules[rank].rounds[t].sends;
            let dup = sends[rng.below(sends.len())].clone();
            sends.push(dup);
            true
        }
        Mutation::ShrinkRecvRange => {
            let v = sites(false, schedules);
            if v.is_empty() {
                return false;
            }
            let (rank, t) = v[rng.below(v.len())];
            let recvs = &mut schedules[rank].rounds[t].recvs;
            let i = rng.below(recvs.len());
            let Some(rng_) = recvs[i].ranges.iter_mut().find(|r| r.end > r.start) else {
                return false;
            };
            rng_.end -= 1;
            true
        }
        Mutation::RetargetSend => {
            if p < 3 {
                return false;
            }
            let v = sites(true, schedules);
            if v.is_empty() {
                return false;
            }
            let (rank, t) = v[rng.below(v.len())];
            let taken: Vec<usize> = schedules[rank].rounds[t]
                .sends
                .iter()
                .map(|s| s.to)
                .collect();
            let sends = &mut schedules[rank].rounds[t].sends;
            let i = rng.below(sends.len());
            let start = rng.below(p);
            let new_to = (0..p)
                .map(|k| (start + k) % p)
                .find(|&cand| cand != rank && !taken.contains(&cand));
            let Some(new_to) = new_to else {
                return false;
            };
            sends[i].to = new_to;
            true
        }
        Mutation::SwapRecvOp => {
            let v = sites(false, schedules);
            if v.is_empty() {
                return false;
            }
            let (rank, t) = v[rng.below(v.len())];
            let recvs = &mut schedules[rank].rounds[t].recvs;
            let i = rng.below(recvs.len());
            recvs[i].op = match recvs[i].op {
                RecvOp::Sum => RecvOp::Copy,
                RecvOp::Copy => RecvOp::Sum,
                RecvOp::Discard => RecvOp::Sum,
            };
            true
        }
    }
}

#[test]
fn verifier_has_zero_false_negatives_on_the_mutation_grid() {
    // The simulator panics on broken pairings; keep the log quiet so
    // thousands of expected panics don't swamp the test output.
    std::panic::set_hook(Box::new(|_| {}));
    let mutations = [
        Mutation::DropSend,
        Mutation::DropRecv,
        Mutation::DuplicateSend,
        Mutation::ShrinkRecvRange,
        Mutation::RetargetSend,
        Mutation::SwapRecvOp,
    ];
    let mut tried = 0usize;
    let mut sim_rejected = 0usize;
    for p in [4usize, 5, 8, 16] {
        for op in CollectiveOp::ALL {
            let elems = default_elems(op, p);
            for algo in op.algorithms() {
                if !plan::supports(op, algo, p, elems) {
                    continue;
                }
                let clean = build_all(op, algo, p, elems);
                for (mi, &m) in mutations.iter().enumerate() {
                    for seed in 0..3u64 {
                        let mut rng = Rng(0x9E37_79B9_7F4A_7C15
                            ^ (seed + 1).wrapping_mul(p as u64 * 131 + mi as u64 * 17 + 1));
                        let mut mutant = clean.clone();
                        if !apply(m, &mut mutant, &mut rng) {
                            continue;
                        }
                        tried += 1;
                        let sim_ok = simulator_accepts(op, p, elems, &mutant);
                        let ver_ok = verifier_accepts(op, elems, &mutant);
                        if !sim_ok {
                            sim_rejected += 1;
                        }
                        assert!(
                            sim_ok || !ver_ok,
                            "false negative: simulator rejects a {m:?} mutant of \
                             {op}/{algo} p={p} seed={seed} but the verifier accepts it"
                        );
                        // Every mutation except the fold-op swap is
                        // visible to pairing alone and must be caught
                        // outright (the swap can be benign when the
                        // copy target is still zero).
                        if !matches!(m, Mutation::SwapRecvOp) {
                            assert!(
                                !ver_ok,
                                "pairing-visible {m:?} mutant of {op}/{algo} p={p} \
                                 seed={seed} slipped past the verifier"
                            );
                        }
                    }
                }
            }
        }
    }
    let _ = std::panic::take_hook();
    assert!(tried > 500, "mutation grid collapsed: only {tried} mutants");
    assert!(
        sim_rejected > tried / 2,
        "mutator is too gentle: simulator rejected only {sim_rejected}/{tried}"
    );
}
