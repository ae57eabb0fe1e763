//! Golden regression values.
//!
//! The whole reproduction is deterministic — integer-picosecond time,
//! seeded workloads, tie-broken event ordering — so key scenario
//! results can be pinned exactly. If a model or protocol change moves
//! any of these numbers, the change is real and EXPERIMENTS.md must be
//! re-generated; this test makes that visible instead of silent.

use acc::coll::{Algorithm, CollectiveOp};
use acc::core::cluster::{ClusterSpec, Technology};
use acc::core::model::{FftModel, SortModel};
use acc::core::{RecoveryPolicy, RunRequest};
use acc::sim::{SimDuration, SimTime};
use acc_chaos::{FaultEvent, FaultPlan};

#[test]
fn analytic_models_are_pinned() {
    // Pure closed forms (Eqs. 3–17) — these change only if the
    // equations or the Athlon calibration change.
    let fft = FftModel::new(512);
    assert_eq!(fft.partition_size(8).bytes(), 524_288);
    assert_eq!(fft.t_dth(8).as_ps(), 6_250_000_000); // 512 KiB / 80 MiB/s
    assert_eq!(fft.t_trans(8).as_ps(), 25_173_611_114);
    let sort = SortModel::new(1 << 25);
    assert_eq!(sort.recv_buckets(16), 128);
    assert_eq!(sort.t_dth(16).as_ps(), 100_000_000_000); // 8 MiB / 80 MiB/s
    assert_eq!(sort.t_dfg(16).as_ps(), 88_888_888_889);
}

#[test]
fn simulated_scenarios_are_pinned() {
    // Full end-to-end runs; exact picosecond totals. Small sizes keep
    // this fast while still exercising the entire stack. If any of
    // these change, regenerate EXPERIMENTS.md.
    let fft_inic = RunRequest::fft(ClusterSpec::new(4, Technology::InicIdeal), 64)
        .execute()
        .into_fft();
    let fft_gige = RunRequest::fft(ClusterSpec::new(4, Technology::GigabitTcp), 64)
        .execute()
        .into_fft();
    let sort_inic = RunRequest::sort(ClusterSpec::new(4, Technology::InicIdeal), 1 << 16)
        .execute()
        .into_sort();
    assert!(fft_inic.verified && fft_gige.verified && sort_inic.verified);
    assert_eq!(
        fft_inic.total.as_ps(),
        1_187_879_754,
        "fft inic-ideal p4 n64"
    );
    assert_eq!(fft_gige.total.as_ps(), 3_317_776_996, "fft gigabit p4 n64");
    assert_eq!(
        sort_inic.total.as_ps(),
        2_915_325_717,
        "sort inic-ideal p4 2^16"
    );
    // Determinism: the same run repeated gives the identical total.
    let fft_inic2 = RunRequest::fft(ClusterSpec::new(4, Technology::InicIdeal), 64)
        .execute()
        .into_fft();
    assert_eq!(fft_inic.total.as_ps(), fft_inic2.total.as_ps());
}

#[test]
fn simulated_collectives_are_pinned() {
    // One bandwidth-bound and one latency-bound engine cell, on a host
    // path and the combined INIC. Same contract as the scenarios above:
    // if a number moves, a schedule or protocol change is real.
    let ring_inic = RunRequest::collective(
        ClusterSpec::new(4, Technology::InicIdeal),
        CollectiveOp::AllReduce,
        Algorithm::Ring,
        8192,
    )
    .execute()
    .into_coll();
    let rd_gige = RunRequest::collective(
        ClusterSpec::new(4, Technology::GigabitTcp),
        CollectiveOp::AllReduce,
        Algorithm::RecursiveDoubling,
        256,
    )
    .execute()
    .into_coll();
    assert!(ring_inic.verified && rd_gige.verified);
    assert_eq!(
        ring_inic.total.as_ps(),
        3_757_111_770,
        "allreduce ring inic-ideal p4 8192"
    );
    assert_eq!(
        rd_gige.total.as_ps(),
        392_091_820,
        "allreduce rd gigabit p4 256"
    );
    // Determinism: repeating the run reproduces the total exactly.
    let ring_inic2 = RunRequest::collective(
        ClusterSpec::new(4, Technology::InicIdeal),
        CollectiveOp::AllReduce,
        Algorithm::Ring,
        8192,
    )
    .execute()
    .into_coll();
    assert_eq!(ring_inic.total.as_ps(), ring_inic2.total.as_ps());
}

/// Node 2's card dies at 61 ms, just after the 60 ms bitstream load,
/// on a 4-node ideal-INIC cluster under `policy`.
fn card_kill(policy: RecoveryPolicy) -> ClusterSpec {
    let plan = FaultPlan::new(0xAB5E).with(FaultEvent::CardFailure {
        node: 2,
        at: SimTime::ZERO + SimDuration::from_millis(61),
    });
    ClusterSpec::new(4, Technology::InicIdeal)
        .with_fault_plan(plan)
        .with_recovery_policy(policy)
}

#[test]
fn card_kill_recoveries_are_pinned() {
    // The application drivers' failover paths, end to end. A full
    // restart abandons every card, so the healthy ones must be told the
    // peer is dead and stop retransmitting to it: no retransmits at all.
    let fft_ckpt = RunRequest::fft(card_kill(RecoveryPolicy::Checkpointed), 64)
        .execute()
        .into_fft();
    let sort_ckpt = RunRequest::sort(card_kill(RecoveryPolicy::Checkpointed), 1 << 16)
        .execute()
        .into_sort();
    let fft_full = RunRequest::fft(card_kill(RecoveryPolicy::FullRestart), 64)
        .execute()
        .into_fft();
    let sort_full = RunRequest::sort(card_kill(RecoveryPolicy::FullRestart), 1 << 16)
        .execute()
        .into_sort();
    for (name, verified, total, faults, ps) in [
        (
            "fft checkpointed",
            fft_ckpt.verified,
            fft_ckpt.total,
            &fft_ckpt.faults,
            2_655_759_074,
        ),
        (
            "sort checkpointed",
            sort_ckpt.verified,
            sort_ckpt.total,
            &sort_ckpt.faults,
            5_023_491_533,
        ),
        (
            "fft full restart",
            fft_full.verified,
            fft_full.total,
            &fft_full.faults,
            4_317_776_996,
        ),
        (
            "sort full restart",
            sort_full.verified,
            sort_full.total,
            &sort_full.faults,
            4_801_910_811,
        ),
    ] {
        assert!(verified, "{name}: wrong data");
        assert_eq!(total.as_ps(), ps, "{name}");
        assert_eq!(faults.retransmits, 0, "{name}: retransmits");
    }
    assert_eq!(fft_ckpt.faults.degraded_nodes, 1);
    assert_eq!(fft_ckpt.faults.resumed_from_phase, Some(3));
    assert_eq!(sort_ckpt.faults.degraded_nodes, 1);
    assert_eq!(sort_ckpt.faults.resumed_from_phase, Some(0));
    for full in [&fft_full.faults, &sort_full.faults] {
        assert_eq!(full.degraded_nodes, 4);
        assert_eq!(full.resumed_from_phase, None);
    }
}

#[test]
fn card_kill_phase_columns_are_pinned() {
    // The FFT and sort columns the failover core derives from its
    // per-phase record, under each policy. Work an interrupted attempt
    // completed stays counted: the full-restart FFT counts the row FFTs
    // both attempts ran.
    let fft = |spec| RunRequest::fft(spec, 64).execute().into_fft();
    let sort = |spec| RunRequest::sort(spec, 1 << 16).execute().into_sort();
    for (policy, [compute, transpose, transpose_compute, transpose_comm]) in [
        (
            RecoveryPolicy::Checkpointed,
            [175_542_848, 1_761_927_527, 9_536_744, 1_761_927_527],
        ),
        (
            RecoveryPolicy::RankLocal,
            [351_085_696, 2_898_309_200, 19_073_488, 2_898_309_200],
        ),
        (
            RecoveryPolicy::FullRestart,
            [351_085_696, 3_648_402_601, 19_073_488, 3_629_329_113],
        ),
    ] {
        let r = fft(card_kill(policy));
        assert!(r.verified, "fft {policy:?}: wrong data");
        assert_eq!(r.compute.as_ps(), compute, "fft {policy:?}: compute");
        assert_eq!(r.transpose.as_ps(), transpose, "fft {policy:?}: transpose");
        let tc = r.transpose_compute.as_ps();
        assert_eq!(tc, transpose_compute, "fft {policy:?}: transpose_compute");
        let comm = r.transpose_comm.as_ps();
        assert_eq!(comm, transpose_comm, "fft {policy:?}: transpose_comm");
    }
    for (policy, [bucket1, comm, bucket2, count]) in [
        (
            RecoveryPolicy::Checkpointed,
            [409_600_000, 2_518_358_200, 407_275_000, 1_105_133_333],
        ),
        (
            RecoveryPolicy::RankLocal,
            [409_600_000, 2_518_358_200, 407_275_000, 1_105_133_333],
        ),
        (
            RecoveryPolicy::FullRestart,
            [409_600_000, 1_872_752_478, 414_425_000, 1_105_133_333],
        ),
    ] {
        let r = sort(card_kill(policy));
        assert!(r.verified, "sort {policy:?}: wrong data");
        assert_eq!(r.bucket1.as_ps(), bucket1, "sort {policy:?}: bucket1");
        assert_eq!(r.comm.as_ps(), comm, "sort {policy:?}: comm");
        assert_eq!(r.bucket2.as_ps(), bucket2, "sort {policy:?}: bucket2");
        assert_eq!(r.count.as_ps(), count, "sort {policy:?}: count");
    }
    // A second card dies 1.4 ms after the first, inside the attempt
    // the first resume started.
    let second = FaultEvent::CardFailure {
        node: 1,
        at: SimTime::ZERO + SimDuration::from_micros(62_400),
    };
    let plan = FaultPlan::new(0xAB5E)
        .with(FaultEvent::CardFailure {
            node: 2,
            at: SimTime::ZERO + SimDuration::from_millis(61),
        })
        .with(second);
    let two = ClusterSpec::new(4, Technology::InicIdeal)
        .with_fault_plan(plan)
        .with_recovery_policy(RecoveryPolicy::RankLocal);
    let r = fft(two);
    assert!(r.verified, "two kills: wrong data");
    assert_eq!(r.total.as_ps(), 5_315_828_503, "two kills");
    assert_eq!(r.compute.as_ps(), 526_628_544, "two kills: compute");
    assert_eq!(r.transpose.as_ps(), 3_142_373_000, "two kills: transpose");
    let tc = r.transpose_compute.as_ps();
    assert_eq!(tc, 33_378_604, "two kills: transpose_compute");
    let comm = r.transpose_comm.as_ps();
    assert_eq!(comm, 3_142_373_000, "two kills: transpose_comm");
    assert_eq!(r.faults.degraded_nodes, 2, "two kills: degraded");
    assert_eq!(r.faults.resumed_from_phase, Some(0), "two kills: resumed");
}

#[test]
fn exchange_paths_are_pinned() {
    // Every path of the exchange the FFT and sort drivers share: the
    // all-at-once length-prefixed TCP exchange, the ring-order card
    // relay of the protocol-only mode, the prototype's 16-bucket card
    // gather, and the mixed-technology side legs of rank-local recovery
    // without checkpoints.
    let sort_gige = RunRequest::sort(ClusterSpec::new(4, Technology::GigabitTcp), 1 << 16)
        .execute()
        .into_sort();
    let fft_proto = RunRequest::fft(ClusterSpec::new(4, Technology::InicProtocol), 64)
        .execute()
        .into_fft();
    let sort_proto = RunRequest::sort(ClusterSpec::new(4, Technology::InicProtocol), 1 << 16)
        .execute()
        .into_sort();
    let sort_aceii = RunRequest::sort(ClusterSpec::new(4, Technology::InicPrototype), 1 << 16)
        .execute()
        .into_sort();
    let fft_local = RunRequest::fft(card_kill(RecoveryPolicy::RankLocal), 64)
        .execute()
        .into_fft();
    let sort_local = RunRequest::sort(card_kill(RecoveryPolicy::RankLocal), 1 << 16)
        .execute()
        .into_sort();
    for (name, verified, total, interrupts, ps, irqs) in [
        (
            "sort gigabit p4 2^16",
            sort_gige.verified,
            sort_gige.total,
            sort_gige.interrupts,
            3_801_910_811,
            68,
        ),
        (
            "fft inic-protocol p4 n64",
            fft_proto.verified,
            fft_proto.total,
            fft_proto.interrupts,
            1_178_851_664,
            8,
        ),
        (
            "sort inic-protocol p4 2^16",
            sort_proto.verified,
            sort_proto.total,
            sort_proto.interrupts,
            3_728_639_587,
            4,
        ),
        (
            "sort inic-prototype p4 2^16",
            sort_aceii.verified,
            sort_aceii.total,
            sort_aceii.interrupts,
            3_983_757_116,
            4,
        ),
        (
            "fft rank-local",
            fft_local.verified,
            fft_local.total,
            fft_local.interrupts,
            3_967_683_595,
            10,
        ),
        (
            "sort rank-local",
            sort_local.verified,
            sort_local.total,
            sort_local.interrupts,
            5_023_491_533,
            3,
        ),
    ] {
        assert!(verified, "{name}: wrong data");
        assert_eq!(total.as_ps(), ps, "{name}");
        assert_eq!(interrupts, irqs, "{name}: interrupts");
    }
    for local in [&fft_local.faults, &sort_local.faults] {
        assert_eq!(local.degraded_nodes, 1);
        assert_eq!(local.resumed_from_phase, Some(0));
        assert_eq!(local.retransmits, 0);
    }
}

#[test]
fn fft_speedup_shape_is_pinned() {
    // The Fig. 4(a) INIC model curve at the paper's anchor points, to
    // three decimals.
    let m = FftModel::new(256);
    let s = |p: usize| (m.speedup(p) * 1000.0).round() / 1000.0;
    assert_eq!(s(2), 1.342);
    assert_eq!(s(8), 7.779);
    assert_eq!(s(16), 15.94);
}

#[test]
fn degraded_collectives_are_pinned() {
    // The collective engine's recovery paths, end to end: node 2's card
    // dies mid-schedule. Under the rank-local policies the survivors'
    // card folds whose source died fall back to host folds, and the
    // AllGather's raw gathers run next to fallback-TCP legs; a full
    // restart reruns every rank over the fallback NICs.
    let coll = |policy, op| {
        RunRequest::collective(card_kill(policy), op, Algorithm::Ring, 8192)
            .execute()
            .into_coll()
    };
    let (all_reduce, all_gather) = (CollectiveOp::AllReduce, CollectiveOp::AllGather);
    for (name, r, ps, comm, compute, degraded, resumed) in [
        (
            "ring allreduce rank-local",
            coll(RecoveryPolicy::RankLocal, all_reduce),
            8_274_765_697,
            7_592_387_644,
            17_339_535,
            1,
            Some(0),
        ),
        (
            "ring allreduce checkpointed",
            coll(RecoveryPolicy::Checkpointed, all_reduce),
            6_635_554_094,
            5_958_955_886,
            11_559_690,
            1,
            Some(1),
        ),
        (
            "ring allgather checkpointed",
            coll(RecoveryPolicy::Checkpointed, all_gather),
            10_233_603_299,
            8_833_603_299,
            0,
            1,
            Some(0),
        ),
        (
            "ring allreduce full restart",
            coll(RecoveryPolicy::FullRestart, all_reduce),
            9_322_561_581,
            9_040_183_528,
            17_339_535,
            4,
            None,
        ),
    ] {
        assert!(r.verified, "{name}: wrong data");
        assert_eq!(r.total.as_ps(), ps, "{name}");
        assert_eq!(r.comm.as_ps(), comm, "{name}: comm");
        assert_eq!(r.compute.as_ps(), compute, "{name}: compute");
        assert_eq!(r.faults.retransmits, 0, "{name}: retransmits");
        assert_eq!(r.faults.degraded_nodes, degraded, "{name}: degraded");
        assert_eq!(r.faults.resumed_from_phase, resumed, "{name}: resumed");
    }
}
