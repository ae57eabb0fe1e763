//! Per-node application drivers.
//!
//! A driver is the "host program" of one cluster node: it owns the
//! node's data partition, charges host compute time through the
//! calibrated kernel models, performs the *actual* data transformations
//! (the same `acc-algos` functions the oracles use), and talks to its
//! network attachment — a [`TcpHostNic`](acc_proto::TcpHostNic) for the
//! commodity technologies or an [`InicCard`](acc_fpga::InicCard) for
//! the INIC technologies.
//!
//! One core (`failover.rs`) owns every rank's lifecycle: the phase
//! clock, the run's span, the pending compute charge, the transfer step
//! (`exchange.rs`), the per-phase record of host compute and transfer
//! waits, the checkpoints, and the stall, failover and resume protocol.
//! A driver supplies its bitstream, its start, what to do when a charge
//! ends or a step moves, its checkpoint payloads and indices, and its
//! restore; it keeps only its transforms, folds, charge amounts and
//! step building.

pub(crate) mod coll;
mod exchange;
mod failover;
pub(crate) mod fft;
pub(crate) mod sort;

pub(crate) use failover::Recoverable;

use std::collections::BTreeMap;

use acc_fpga::InicMode;
use acc_host::StallSchedule;
use acc_net::MacAddr;
use acc_sim::{unknown_event, Component, ComponentId, SimDuration, SimTime};

use crate::msg::{CoreMsg, Ctx, Msg};

/// How a node reaches the network.
#[derive(Clone, Debug)]
pub(crate) enum Attachment {
    /// Commodity NIC + kernel TCP (Fast or Gigabit Ethernet — the link
    /// rate is a property of the wiring, not the driver).
    Tcp {
        /// The node's `TcpHostNic` component.
        nic: ComponentId,
        /// MAC of every rank.
        macs: Vec<MacAddr>,
    },
    /// Intelligent NIC.
    Inic {
        /// The node's `InicCard` component.
        card: ComponentId,
        /// MAC of every rank.
        macs: Vec<MacAddr>,
        /// Operating mode: [`InicMode::Combined`] fuses the application
        /// operators into the datapath; [`InicMode::ProtocolProcessor`]
        /// offloads only the protocol, leaving the data manipulation on
        /// the host (the Section 2 mode ablation).
        mode: InicMode,
        /// Degradation path: a commodity `TcpHostNic` per rank (this
        /// node's component id, every rank's fallback MAC table), wired
        /// only when the fault plan can kill a card. On [`CardFailed`]
        /// the driver abandons the card and restarts over this path.
        fallback: Option<(ComponentId, Vec<MacAddr>)>,
    },
}

/// Cluster → every driver: node `node`'s INIC card died permanently.
/// What happens next depends on the [`RecoveryPolicy`]: under
/// [`RecoveryPolicy::FullRestart`] all ranks fail over together and
/// restart from their retained inputs over the commodity fallback NICs;
/// under the rank-local policies only the dead rank degrades to its
/// fallback `TcpHostNic`, healthy ranks keep their INIC datapath, and
/// the collective resumes (from the last checkpointed phase when
/// checkpointing is on) as a mixed-technology exchange.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CardFailed {
    /// Rank whose card died.
    pub node: u32,
}

/// How the cluster recovers from a permanent card failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RecoveryPolicy {
    /// Every rank abandons its card and restarts the whole collective
    /// from input bytes over the fallback NICs (PR 1 behaviour).
    FullRestart,
    /// Only the dead rank falls back to TCP; healthy ranks keep their
    /// INICs and the collective restarts from scratch as a
    /// mixed-technology exchange.
    RankLocal,
    /// Rank-local degradation plus phase-level checkpoints: the
    /// collective resumes from the earliest phase any rank had not yet
    /// completed, instead of from scratch.
    #[default]
    Checkpointed,
}

/// One rank's phase snapshot, read by the liveness layer to attribute a
/// hang to a named phase and rank. Every driver exposes it via a
/// `progress()` accessor; the phase names match the
/// [`DeadlineHierarchy`](crate::deadline::DeadlineHierarchy) budgets.
#[derive(Clone, Debug)]
pub struct DriverProgress {
    /// The rank.
    pub rank: usize,
    /// Current phase name (`init`, `fft1`, `exchange`, ..., `done`).
    pub phase: &'static str,
    /// When the driver entered that phase.
    pub entered: SimTime,
    /// Whether the driver is parked awaiting a recovery resume.
    pub paused: bool,
    /// Whether the driver finished.
    pub done: bool,
}

/// Host-side latency of one failure-coordination message (detection,
/// kernel path, daemon wakeup). Charged on each report and each resume
/// broadcast.
pub(crate) const RECOVERY_LATENCY: SimDuration = SimDuration::from_micros(200);

/// Per-driver fault-handling configuration, wired by the cluster
/// builder only when a fault plan is attached.
#[derive(Default)]
pub(crate) struct FaultCtl {
    /// This node's stall windows from the plan (empty = never stalls).
    pub stalls: StallSchedule,
    /// Card-failure recovery policy.
    pub policy: RecoveryPolicy,
    /// The [`RecoveryCoordinator`], present only when the plan can kill
    /// cards and the policy is rank-local. Its presence also arms
    /// checkpoint capture under [`RecoveryPolicy::Checkpointed`].
    pub coordinator: Option<ComponentId>,
}

/// Driver → coordinator: this rank processed a [`CardFailed`] and can
/// resume from checkpoint `phase` (0 = from scratch).
#[derive(Clone, Copy, Debug)]
pub(crate) struct RecoveryReport {
    /// Failover round (the driver's post-bump epoch) the report belongs
    /// to; reports from different rounds are never mixed.
    pub round: u64,
    /// Highest phase checkpoint this rank holds (its phase counter).
    /// The collective engine reports *completed rounds* here — the
    /// coordinator's minimum is then the last round whose checkpoint
    /// every survivor can restore.
    pub phase: u32,
}

/// Coordinator → every driver: all ranks reported for `round`; resume
/// the collective from checkpoint `phase` (the minimum over ranks — a
/// collective phase needs every peer's participation).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ResumeAt {
    /// Failover round this decision belongs to.
    pub round: u64,
    /// Phase to restore and resume from.
    pub phase: u32,
}

/// Cluster-attached failover coordinator: gathers one
/// [`RecoveryReport`] per rank per round and broadcasts the minimum
/// completed phase as the cluster-wide resume point. Models the small
/// host-level consensus a real cluster would run over its management
/// network; each hop is charged [`RECOVERY_LATENCY`].
pub(crate) struct RecoveryCoordinator {
    label: String,
    drivers: Vec<ComponentId>,
    /// Collected phases per round.
    rounds: BTreeMap<u64, Vec<u32>>,
}

impl RecoveryCoordinator {
    /// Build a coordinator over the given driver components.
    pub fn new(drivers: Vec<ComponentId>) -> RecoveryCoordinator {
        RecoveryCoordinator {
            label: "recovery-coordinator".to_owned(),
            drivers,
            rounds: BTreeMap::new(),
        }
    }
}

impl Component<Msg> for RecoveryCoordinator {
    fn handle(&mut self, ev: Msg, ctx: &mut Ctx) {
        let Msg::Core(CoreMsg::Report(report)) = ev else {
            unknown_event(&self.label)
        };
        let round = report.round;
        let phases = self.rounds.entry(round).or_default();
        phases.push(report.phase);
        if phases.len() < self.drivers.len() {
            return;
        }
        let phase = *phases.iter().min().expect("at least one report");
        ctx.stats().counter(&self.label, "recovery_rounds").inc();
        for &d in &self.drivers {
            ctx.send_in(
                RECOVERY_LATENCY,
                d,
                CoreMsg::Resume(ResumeAt { round, phase }),
            );
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

impl Attachment {
    /// MAC table shared by both variants.
    pub fn macs(&self) -> &[MacAddr] {
        match self {
            Attachment::Tcp { macs, .. } | Attachment::Inic { macs, .. } => macs,
        }
    }

    /// The INIC operating mode, if this is an INIC attachment.
    pub fn inic_mode(&self) -> Option<InicMode> {
        match self {
            Attachment::Inic { mode, .. } => Some(*mode),
            Attachment::Tcp { .. } => None,
        }
    }

    /// Resolve a delivery's source MAC to a rank, accepting both the
    /// primary table and (on an INIC attachment with a wired fallback)
    /// the fallback table — a degraded peer sends from its fallback NIC.
    pub fn resolve_src(&self, mac: MacAddr) -> Option<usize> {
        if let Some(rank) = self.macs().iter().position(|&m| m == mac) {
            return Some(rank);
        }
        if let Attachment::Inic {
            fallback: Some((_, fb_macs)),
            ..
        } = self
        {
            return fb_macs.iter().position(|&m| m == mac);
        }
        None
    }
}

/// Receive-side bucket count for a per-node key volume: enough buckets
/// that each bucket fits the processor cache, and never fewer than the
/// paper's 128 ("on a problem size of 2²¹ keys or more, a minimum of 128
/// buckets are needed for the problem to map well into cache").
pub(crate) fn recv_buckets_for(keys_per_node: u64) -> usize {
    let target_bucket_bytes = 128 * 1024;
    let needed = (keys_per_node * 4).div_ceil(target_bucket_bytes).max(128);
    needed.next_power_of_two() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_count_floors_at_128() {
        assert_eq!(recv_buckets_for(1 << 10), 128);
        assert_eq!(recv_buckets_for(1 << 21), 128);
    }

    #[test]
    fn bucket_count_grows_for_big_partitions() {
        // 2²⁵ keys = 128 MiB → 1024 buckets of 128 KiB.
        assert_eq!(recv_buckets_for(1 << 25), 1024);
        // Power of two always.
        for shift in 10..26 {
            assert!(recv_buckets_for(1u64 << shift).is_power_of_two());
        }
    }
}
