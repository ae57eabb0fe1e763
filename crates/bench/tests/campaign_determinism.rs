//! The fault campaign is bit-deterministic: the same [`FaultPlan`] seed
//! must produce byte-identical reports across runs — the acceptance bar
//! for reproducible resilience experiments.

use acc_bench::campaign::{fault_campaign, CampaignConfig};
use acc_bench::executor::Executor;
use acc_chaos::{FaultEvent, FaultPlan};
use acc_core::cluster::{ClusterSpec, Technology};
use acc_core::RunRequest;
use acc_sim::{SimDuration, SimTime};

fn small_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        p: 4,
        total_keys: 1 << 15,
        seed,
        loss_pcts: vec![0.0, 1.0, 2.0],
        technologies: vec![Technology::GigabitTcp, Technology::InicIdeal],
    }
}

#[test]
fn same_seed_produces_byte_identical_reports() {
    // Serial vs. pooled: the executor must not leak into the bytes.
    let a = fault_campaign(&Executor::serial(), &small_config(0xFA17));
    let b = fault_campaign(&Executor::new(4), &small_config(0xFA17));
    assert_eq!(a.to_table(), b.to_table());
    assert_eq!(a.to_csv(), b.to_csv());
}

#[test]
fn different_seed_changes_the_fault_sequence() {
    let ex = Executor::serial();
    let a = fault_campaign(&ex, &small_config(1));
    let b = fault_campaign(&ex, &small_config(2));
    // The pristine 0% column matches; the lossy columns should not all
    // be identical (different seeds lose different frames).
    assert_ne!(a.to_csv(), b.to_csv());
}

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

/// A structured transient plan — a node stall plus a card
/// reconfiguration window — is exactly as deterministic as frame loss:
/// the same seed replays the same run, byte for byte.
#[test]
fn transient_plan_replays_byte_identically() {
    let plan = FaultPlan::new(0x0DD5)
        .with(FaultEvent::NodeStall {
            node: 2,
            from: ms(60),
            until: ms(62),
        })
        .with(FaultEvent::CardReconfigure {
            node: 1,
            at: ms(61),
            hold: SimDuration::from_millis(2),
        });
    let run = || {
        let spec = ClusterSpec::new(4, Technology::InicIdeal).with_fault_plan(plan.clone());
        let r = RunRequest::sort(spec, 1 << 15).execute().into_sort();
        assert!(r.verified);
        format!("{:?} {:?} {:?}", r.total, r.faults, r.switch_drops)
    };
    assert_eq!(run(), run(), "same plan, same bytes");
}

/// Property: a `CardReconfigure` whose hold is shorter than the
/// protocol's retransmit-abandon horizon (12 retries × 2 ms) never
/// changes the *answer* — any hold in that range is absorbed by the
/// card's deferral buffers and the sender-side retransmit machinery,
/// with zero ranks degraded.
#[test]
fn bounded_hold_never_changes_the_answer() {
    for hold_ms in [1u64, 3, 7, 12, 20] {
        let plan = FaultPlan::new(0xB0B).with(FaultEvent::CardReconfigure {
            node: 3,
            at: ms(61),
            hold: SimDuration::from_millis(hold_ms),
        });
        let spec = ClusterSpec::new(4, Technology::InicIdeal).with_fault_plan(plan);
        let r = RunRequest::sort(spec, 1 << 15).execute().into_sort();
        assert!(r.verified, "hold={hold_ms}ms corrupted the sort");
        assert_eq!(
            r.faults.degraded_nodes, 0,
            "hold={hold_ms}ms degraded a rank"
        );
        assert_eq!(r.faults.resumed_from_phase, None);
        assert!(r.faults.reconfig_windows_survived >= 1);
    }
}
