//! Cluster construction and the end-to-end workload bodies.
//!
//! A [`ClusterSpec`] describes a P-node cluster of one [`Technology`].
//! The workload bodies here (FFT, sort, engine collective, halo) wire
//! it as the run's plan (`plan.rs`) describes, run the application to
//! completion, verify the result against a serial oracle, and return a
//! timing decomposition. They are private to the crate:
//! [`crate::RunRequest::execute`] is their one caller and the one way
//! to run a cluster.

use acc_algos::fft::{fft_2d, Matrix};
use acc_algos::sort::is_sorted;
use acc_algos::sort::splitters_from_sample;
use acc_algos::transpose::{join_row_blocks, split_row_blocks};
use acc_algos::workload::{distributed_uniform_keys, gaussian_keys, random_matrix};
use acc_chaos::{FaultPlan, LinkId};
use acc_coll::{Algorithm, CollectiveOp, OffloadError, OffloadPlan, PathClass, Schedule};
use acc_fpga::{
    CardPorts, FpgaDevice, FpgaMsg, InicCard, InicKill, InicMode, InicReconfigure, CREDIT_WINDOW,
};
use acc_host::{HostKernels, InterruptCosts, ModerationPolicy, StallSchedule};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use acc_net::port::EgressPort;
use acc_net::{
    EthernetKind, FabricSpec, LinkParams, MacAddr, NetMsg, PartitionReport, RouteUpdate, Switch,
    SwitchKill, SwitchParams,
};
use acc_proto::{HostPathCosts, TcpHostNic, TcpParams};
use acc_sim::{Component, ComponentId, HangKind, SimDuration, SimTime, Simulation};

use crate::audit::{self, AuditConfig, AuditCounts, Auditor};
use crate::drivers::coll::CollDriver;
use crate::drivers::fft::FftDriver;
use crate::drivers::sort::{SortDriver, SortVariant};
use crate::drivers::{
    Attachment, CardFailed, DriverProgress, FaultCtl, Recoverable, RecoveryCoordinator,
    RecoveryPolicy,
};
use crate::liveness::{HangCause, HangReport};
use crate::msg::{CoreMsg, Msg};
use crate::plan::RunPlan;
use crate::report::FaultDiagnostics;

/// The four network technologies the paper evaluates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Technology {
    /// 100 Mb/s Ethernet + TCP (Fig. 8(a)'s lowest curves).
    FastEthernet,
    /// 1 Gb/s Ethernet + TCP (the commodity baseline everywhere).
    GigabitTcp,
    /// The Section-4 next-generation INIC (dual-ported card, dense
    /// FPGA).
    InicIdeal,
    /// The ACEII prototype INIC (shared 132 MB/s card bus, 4085XLA).
    InicPrototype,
    /// An ideal INIC used **only** as a protocol processor (Section 2's
    /// second mode): no per-packet interrupts and the lightweight
    /// protocol, but all data manipulation stays on the host. The mode
    /// ablation for the paper's claim that reconfigurable computing and
    /// the NIC "enable each other to succeed".
    InicProtocol,
}

impl Technology {
    /// All five, in the paper's presentation order (the protocol-only
    /// mode last — it is our Section 2 mode ablation, not a paper
    /// configuration).
    pub const ALL: [Technology; 5] = [
        Technology::FastEthernet,
        Technology::GigabitTcp,
        Technology::InicIdeal,
        Technology::InicPrototype,
        Technology::InicProtocol,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Technology::FastEthernet => "fast-ethernet",
            Technology::GigabitTcp => "gigabit-tcp",
            Technology::InicIdeal => "inic-ideal",
            Technology::InicPrototype => "inic-prototype",
            Technology::InicProtocol => "inic-protocol-only",
        }
    }

    /// Whether this technology uses an INIC card.
    pub fn is_inic(self) -> bool {
        self.card().is_some()
    }

    fn link_kind(self) -> EthernetKind {
        match self {
            Technology::FastEthernet => EthernetKind::Fast,
            _ => EthernetKind::Gigabit,
        }
    }

    /// The card an INIC technology carries, `None` for the host-TCP
    /// technologies.
    pub(crate) fn card(self) -> Option<Card> {
        let (device, ports): (_, fn() -> CardPorts) = match self {
            Technology::FastEthernet | Technology::GigabitTcp => return None,
            Technology::InicPrototype => (FpgaDevice::xc4085xla(), CardPorts::aceii),
            Technology::InicIdeal | Technology::InicProtocol => {
                (FpgaDevice::virtex_next_gen(), CardPorts::ideal)
            }
        };
        let mode = if self == Technology::InicProtocol {
            InicMode::ProtocolProcessor
        } else {
            InicMode::Combined
        };
        Some((device, ports, mode))
    }
}

/// An INIC technology's card: its device, the constructor of its port
/// engines (stateful, so one set per card) and its operating mode.
pub(crate) type Card = (FpgaDevice, fn() -> CardPorts, InicMode);

/// A cluster scenario.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Node count.
    pub p: usize,
    /// Network technology.
    pub technology: Technology,
    /// Workload seed (recorded with every experiment).
    pub seed: u64,
    /// Verify results against serial oracles (disable only for very
    /// large figure runs where the oracle itself is the bottleneck).
    pub verify: bool,
    /// Deterministic fault schedule. `None` (the default) wires the
    /// pristine cluster with zero fault-injection overhead — the golden
    /// figures run exactly as before. `Some` compiles the plan into
    /// per-link impairments, enables the INIC recovery protocol, and
    /// (if the plan kills cards) wires a commodity fallback NIC per
    /// node and schedules the failures.
    pub fault_plan: Option<FaultPlan>,
    /// Switch fabric shape. [`FabricSpec::SingleSwitch`] (the default)
    /// wires the paper's single store-and-forward switch exactly as
    /// before — byte-identical to every existing golden. The
    /// multi-switch shapes instantiate one switch per topology node,
    /// joined by trunk links, with deterministic minimal routing tables
    /// (D-mod-k on the fat-tree, dimension-order on the torus; see
    /// `acc_net::fabric` and `acc_net::routing`).
    pub fabric: FabricSpec,
    /// How the cluster recovers from permanent card failures. Ignored
    /// on fault-free runs and for [`Technology::InicProtocol`] (a pure
    /// protocol processor has no card datapath worth keeping, so it
    /// always falls back to a full restart).
    pub recovery: RecoveryPolicy,
    /// Suppress the engine's stderr diagnostics (trace-tail dumps on
    /// panics and watchdog aborts). Set by harnesses that run many
    /// *expected* failures — the fault-plan minimizer probes dozens of
    /// candidate plans, most of which hang or fail on purpose.
    pub quiet: bool,
}

impl ClusterSpec {
    /// A verifying spec.
    pub fn new(p: usize, technology: Technology) -> ClusterSpec {
        ClusterSpec {
            p,
            technology,
            seed: 0xACC,
            verify: true,
            fault_plan: None,
            fabric: FabricSpec::SingleSwitch,
            recovery: RecoveryPolicy::default(),
            quiet: false,
        }
    }

    /// Attach a fault plan (builder style).
    ///
    /// # Panics
    /// Panics if the plan is inconsistent with this cluster — a fault
    /// references a node ≥ P, a window has zero duration, or two
    /// outages on the same link overlap.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> ClusterSpec {
        if let Err(e) = plan.validate(self.p as u32) {
            panic!("invalid fault plan: {e}");
        }
        self.fault_plan = Some(plan);
        self
    }

    /// Choose the switch fabric (builder style).
    ///
    /// # Panics
    /// Panics if the shape is invalid or cannot seat `p` hosts (a
    /// fat-tree of arity `k` seats `k³/4`, a torus one host per
    /// switch). Fault plans carrying fabric faults are re-checked
    /// against the concrete topology when the cluster is wired.
    #[must_use]
    pub fn with_fabric(mut self, fabric: FabricSpec) -> ClusterSpec {
        if let Err(e) = fabric.validate(self.p) {
            panic!("invalid fabric: {e}");
        }
        self.fabric = fabric;
        self
    }

    /// Choose the card-failure recovery policy (builder style).
    #[must_use]
    pub fn with_recovery_policy(mut self, policy: RecoveryPolicy) -> ClusterSpec {
        self.recovery = policy;
        self
    }

    /// Suppress stderr diagnostics for expected-failure harnesses
    /// (builder style).
    #[must_use]
    pub fn with_quiet(mut self, quiet: bool) -> ClusterSpec {
        self.quiet = quiet;
        self
    }
}

/// Result of one FFT run.
#[derive(Clone, Debug)]
pub struct FftRunResult {
    /// Wall time from computation start (post-configuration) to the last
    /// node finishing.
    pub total: SimDuration,
    /// Maximum per-node row-FFT compute time.
    pub compute: SimDuration,
    /// Maximum per-node transpose time (both transposes).
    pub transpose: SimDuration,
    /// Maximum per-node host compute buried in the transposes (local
    /// transpose + final permutation; zero on INIC paths).
    pub transpose_compute: SimDuration,
    /// Maximum per-node pure communication share of the transposes.
    pub transpose_comm: SimDuration,
    /// Whether the distributed result matched `fft_2d` (always true
    /// unless `verify` was off).
    pub verified: bool,
    /// Frames dropped in the switch. The INIC protocol's scheduling
    /// guarantee ("no packet loss as the total amount of data put into
    /// the network never exceeds the network buffers") is asserted: INIC
    /// runs with drops panic.
    pub switch_drops: u64,
    /// Maximum per-node host CPU time spent on protocol processing
    /// (zero on INIC technologies — the card does it).
    pub protocol_cpu: SimDuration,
    /// Total interrupts taken across the cluster on the network path.
    pub interrupts: u64,
    /// Fault-handling telemetry (all zero/`None` on a fault-free run).
    pub faults: FaultDiagnostics,
    /// What the online Auditor did (`None` on runs without one, i.e.
    /// without a fault plan).
    pub audit: Option<AuditCounts>,
    /// Frames a receiver discarded because they failed the wire
    /// codec's length, padding or checksum check: TCP
    /// `rx_checksum_drops` plus INIC `rx_decode_drops`. Nonzero only
    /// under frame corruption.
    pub rejected_frames: u64,
}

/// Result of one sort run.
#[derive(Clone, Debug)]
pub struct SortRunResult {
    /// Wall time from start (post-configuration) to the last node done.
    pub total: SimDuration,
    /// Max per-node host phase-1 bucket time.
    pub bucket1: SimDuration,
    /// Max per-node exchange wall time.
    pub comm: SimDuration,
    /// Max per-node host phase-2 bucket time.
    pub bucket2: SimDuration,
    /// Max per-node count-sort time.
    pub count: SimDuration,
    /// Whether the distributed result matched a serial sort.
    pub verified: bool,
    /// Frames dropped in the switch (always 0 on INIC technologies).
    pub switch_drops: u64,
    /// Maximum per-node host CPU time spent on protocol processing.
    pub protocol_cpu: SimDuration,
    /// Total interrupts taken across the cluster on the network path.
    pub interrupts: u64,
    /// Fault-handling telemetry (all zero/`None` on a fault-free run).
    pub faults: FaultDiagnostics,
    /// What the online Auditor did (`None` on runs without one, i.e.
    /// without a fault plan).
    pub audit: Option<AuditCounts>,
    /// Frames a receiver discarded because they failed the wire
    /// codec's length, padding or checksum check: TCP
    /// `rx_checksum_drops` plus INIC `rx_decode_drops`. Nonzero only
    /// under frame corruption.
    pub rejected_frames: u64,
}

/// Everything wired up for one run.
struct Wiring {
    sim: Simulation<Msg>,
    drivers: Vec<ComponentId>,
    nics: Vec<ComponentId>,
    switches: Vec<ComponentId>,
    technology: Technology,
    /// What the Auditor watches; present only on faulted runs. The
    /// end-of-run [`audit::final_check`] reads it after `sim.run()`.
    audit: Option<AuditConfig>,
}

/// Translate one switch's next-hop table (dst MAC → neighbour switch
/// id, as `acc_net::routing` computes it) into the concrete egress
/// ports this wiring attached.
fn to_port_routes(
    table: &BTreeMap<MacAddr, usize>,
    trunk_ports: &BTreeMap<usize, usize>,
) -> BTreeMap<MacAddr, usize> {
    table
        .iter()
        .map(|(mac, nb)| (*mac, trunk_ports[nb]))
        .collect()
}

/// Build the sim, switches and per-node network attachments `plan`
/// describes; `make_driver` turns each rank's attachment (plus its
/// fault-handling configuration) into its driver.
fn wire<D: Component<Msg>>(
    spec: &ClusterSpec,
    plan: &RunPlan,
    mut make_driver: impl FnMut(usize, Attachment, FaultCtl) -> D,
) -> Wiring {
    let mut sim = Simulation::new(spec.seed);
    if spec.quiet {
        sim.set_quiet(true);
    }
    let link = LinkParams::for_kind(spec.technology.link_kind());
    let faults = spec.fault_plan.as_ref();
    let topo = &plan.topo;
    let fabric_mode = plan.timeline.is_some();
    let macs: Vec<MacAddr> = (0..spec.p).map(|i| MacAddr::for_node(i, 0)).collect();
    let driver_ids: Vec<ComponentId> = (0..spec.p).map(|_| sim.reserve_id()).collect();
    let nic_ids: Vec<ComponentId> = (0..spec.p).map(|_| sim.reserve_id()).collect();
    let switch_ids: Vec<ComponentId> = (0..topo.switch_count).map(|_| sim.reserve_id()).collect();
    let mut switches: Vec<Switch> = (0..topo.switch_count)
        .map(|i| {
            // The single-switch label stays "switch" so every existing
            // stats scope and golden byte sequence is untouched.
            let label = if fabric_mode {
                format!("fsw{i}")
            } else {
                "switch".to_owned()
            };
            Switch::new(label, SwitchParams::default())
        })
        .collect();
    // The fallback links carry no impairments: the scenario under test
    // is the failure itself.
    let fallback_macs: Vec<MacAddr> = (0..spec.p).map(|i| MacAddr::for_node(i, 1)).collect();
    let fallback_ids: Vec<ComponentId> = match plan.fallback_homes {
        Some(_) => (0..spec.p).map(|_| sim.reserve_id()).collect(),
        None => Vec::new(),
    };
    // Rank-local recovery needs the coordinator that agrees on the
    // cluster-wide resume phase.
    let coordinator = (plan.fallback_homes.is_some() && plan.policy != RecoveryPolicy::FullRestart)
        .then(|| sim.reserve_id());
    let uplink_to = |switch: usize, port: usize| {
        EgressPort::new(
            link.rate,
            link.prop_delay,
            acc_net::presets::NIC_BUFFER,
            switch_ids[switch],
            port,
            0,
        )
    };
    let tcp_nic = |label: String, mac: MacAddr, rank: usize, uplink: EgressPort| {
        TcpHostNic::new(
            label,
            mac,
            driver_ids[rank],
            uplink,
            TcpParams::default(),
            HostPathCosts::athlon_pci(),
            InterruptCosts::athlon_linux24(),
            ModerationPolicy::syskonnect_default(),
        )
    };
    let mut port_labels: Vec<String> = Vec::new();
    for rank in 0..spec.p {
        let home = topo.home[rank];
        let sw_port = switches[home].attach(macs[rank], nic_ids[rank], 0, link);
        let mut uplink = uplink_to(home, sw_port);
        if let Some(pl) = faults {
            if let Some(imp) = pl.impairment_for(LinkId::NodeUplink(rank as u32)) {
                uplink.set_impairment(imp);
            }
            if let Some(imp) = pl.impairment_for(LinkId::SwitchDownlink(rank as u32)) {
                switches[home].set_port_impairment(sw_port, imp);
            }
            // Conservation counters for the Auditor, faulted runs only
            // (unlabelled ports publish nothing — the pristine wiring
            // stays byte-identical).
            uplink.set_stats_label(format!("up{rank}"));
            switches[home].set_port_stats_label(sw_port, format!("swdown{rank}"));
            port_labels.push(format!("up{rank}"));
            port_labels.push(format!("swdown{rank}"));
        }
        let fallback = plan.fallback_homes.as_ref().map(|homes| {
            // On the single switch the fallback home is the same switch,
            // the second port of the original wiring.
            let fb_home = homes[rank];
            let fb_port =
                switches[fb_home].attach(fallback_macs[rank], fallback_ids[rank], 0, link);
            let mut fb_uplink = uplink_to(fb_home, fb_port);
            fb_uplink.set_stats_label(format!("fb{rank}"));
            switches[fb_home].set_port_stats_label(fb_port, format!("swfb{rank}"));
            port_labels.push(format!("fb{rank}"));
            port_labels.push(format!("swfb{rank}"));
            let nic = tcp_nic(
                format!("tcp-fb{rank}"),
                fallback_macs[rank],
                rank,
                fb_uplink,
            );
            sim.register(fallback_ids[rank], nic);
            (fallback_ids[rank], fallback_macs.clone())
        });
        let attachment = match plan.card {
            None => {
                sim.register(
                    nic_ids[rank],
                    tcp_nic(format!("tcp{rank}"), macs[rank], rank, uplink),
                );
                Attachment::Tcp {
                    nic: nic_ids[rank],
                    macs: macs.clone(),
                }
            }
            Some((device, ports, mode)) => {
                sim.register(
                    nic_ids[rank],
                    InicCard::new(
                        format!("inic{rank}"),
                        rank as u32,
                        macs[rank],
                        driver_ids[rank],
                        uplink,
                        device,
                        ports(),
                    )
                    .with_reliability(!plan.lossless)
                    .with_peers(macs.clone()),
                );
                Attachment::Inic {
                    card: nic_ids[rank],
                    macs: macs.clone(),
                    mode,
                    fallback,
                }
            }
        };
        let fault_ctl = FaultCtl {
            stalls: faults
                .map(|pl| StallSchedule::new(pl.stall_windows(rank as u32)))
                .unwrap_or_default(),
            policy: plan.policy,
            coordinator,
        };
        sim.register(driver_ids[rank], make_driver(rank, attachment, fault_ctl));
    }
    // Trunk ports append after every host attachment, so both ends'
    // indices are computable up front: walk the canonical (sorted)
    // trunk list once, in order.
    let mut trunk_port: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); topo.switch_count];
    {
        let mut next_port: Vec<usize> = switches.iter().map(Switch::port_count).collect();
        for &(a, b) in &topo.trunks {
            let (pa, pb) = (next_port[a], next_port[b]);
            next_port[a] += 1;
            next_port[b] += 1;
            assert_eq!(switches[a].attach_trunk(switch_ids[b], pb, link), pa);
            assert_eq!(switches[b].attach_trunk(switch_ids[a], pa, link), pb);
            trunk_port[a].insert(b, pa);
            trunk_port[b].insert(a, pb);
            if let Some(pl) = faults {
                // LinkDown windows darken both directions of the trunk;
                // the two directions draw disjoint RNG streams.
                if let Some(imp) = pl.trunk_impairment(a as u32, b as u32) {
                    switches[a].set_port_impairment(pa, imp);
                }
                if let Some(imp) = pl.trunk_impairment(b as u32, a as u32) {
                    switches[b].set_port_impairment(pb, imp);
                }
                switches[a].set_port_stats_label(pa, format!("trunk{a}-{b}"));
                switches[b].set_port_stats_label(pb, format!("trunk{b}-{a}"));
                port_labels.push(format!("trunk{a}-{b}"));
                port_labels.push(format!("trunk{b}-{a}"));
            }
        }
    }
    // Arm the fabric from the plan's routing timeline: epoch-0 tables
    // install before the first event, later epochs swap in via
    // RouteUpdate at their boundary instants, switch deaths fire as
    // SwitchKill.
    let switch_kills = faults.map(FaultPlan::switch_failures).unwrap_or_default();
    if let Some(sched) = &plan.timeline {
        for (s, sw) in switches.iter_mut().enumerate() {
            sw.enable_routing(to_port_routes(&sched.epochs[0].tables[s], &trunk_port[s]));
        }
        for e in &sched.epochs[1..] {
            for (s, &sid) in switch_ids.iter().enumerate() {
                let routes = to_port_routes(&e.tables[s], &trunk_port[s]);
                sim.schedule_at(e.start, sid, NetMsg::Routes(RouteUpdate { routes }));
            }
        }
        for &(s, at) in &switch_kills {
            sim.schedule_at(at, switch_ids[s as usize], NetMsg::Kill(SwitchKill));
        }
    }
    for (&sid, sw) in switch_ids.iter().zip(switches) {
        sim.register(sid, sw);
    }
    if let Some(coord) = coordinator {
        sim.register(coord, RecoveryCoordinator::new(driver_ids.clone()));
    }
    for &d in &driver_ids {
        sim.schedule_at(SimTime::ZERO, d, CoreMsg::Start);
    }
    let mut audit_cfg = None;
    if let Some(pl) = faults {
        // Faulted runs keep a trace tail so an Auditor violation dumps
        // the events around the offence, and run under its watch.
        sim.enable_trace(256);
        let cfg = AuditConfig {
            ports: port_labels,
            cards: if plan.card.is_some() {
                (0..spec.p).map(|i| format!("inic{i}")).collect()
            } else {
                Vec::new()
            },
            switches: if fabric_mode {
                (0..topo.switch_count).map(|i| format!("fsw{i}")).collect()
            } else {
                Vec::new()
            },
            credit_window: CREDIT_WINDOW,
            // A killed card legitimately strands whatever its uplink and
            // switch port still queued; a killed switch does the same to
            // every victim rank's uplink.
            expect_quiescent_ports: !pl.has_card_failures() && switch_kills.is_empty(),
            p: spec.p as u64,
        };
        let auditor_id = sim.reserve_id();
        sim.register(auditor_id, Auditor::new(cfg.clone()));
        sim.schedule_at(SimTime::ZERO, auditor_id, CoreMsg::Start);
        audit_cfg = Some(cfg);
    }
    if plan.card.is_some() {
        // Every stranded rank's card goes dark at its instant, and every
        // driver is told so the cluster can recover under the active
        // policy: from the last round checkpoint over the fallback NIC
        // once the coordinator agrees.
        for &(node, at) in &plan.stranded {
            sim.schedule_at(at, nic_ids[node as usize], FpgaMsg::Kill(InicKill));
            for &d in &driver_ids {
                sim.schedule_at(at, d, CoreMsg::CardFailed(CardFailed { node }));
            }
        }
        // Transient reconfiguration windows: the card buffers and
        // recovers on its own, so only the card hears about them. (On
        // commodity technologies there is no card — the window is a
        // no-op by construction.)
        for (node, at, hold) in faults.map(FaultPlan::card_reconfigures).unwrap_or_default() {
            let node_idx = node as usize;
            assert!(node_idx < spec.p, "fault plan reconfigures a card beyond P");
            let reconfigure = InicReconfigure { hold };
            sim.schedule_at(at, nic_ids[node_idx], FpgaMsg::Reconfigure(reconfigure));
        }
    }
    Wiring {
        sim,
        drivers: driver_ids,
        nics: nic_ids,
        switches: switch_ids,
        technology: spec.technology,
        audit: audit_cfg,
    }
}

impl Wiring {
    /// Run the simulation to completion under the deadline hierarchy's
    /// watchdog — **the** deadline-aware wrapper every production run
    /// goes through (acc-lint R6 bans raw `run()` elsewhere).
    ///
    /// Three hang shapes all land here as a structured [`HangReport`]:
    /// a watchdog abort (event budget, livelock, run deadline), and the
    /// quieter *deadlock* — the event queue drains while drivers still
    /// wait on peers that will never send.
    fn run_to_completion<D: Recoverable>(&mut self, plan: &RunPlan) -> Result<(), Box<HangReport>> {
        let hierarchy = &plan.deadlines;
        let wd = hierarchy.watchdog();
        // acc-lint: allow(R6, reason = "this is the deadline-aware wrapper itself: the watchdog built two lines up bounds the run")
        let outcome = self.sim.run_guarded(&wd);
        let ranks: Vec<DriverProgress> = self.ranks::<D>().map(|d| d.fo().progress()).collect();
        match outcome {
            Ok(_) if ranks.iter().all(|r| r.done) => Ok(()),
            Ok(_) => {
                let mut report = HangReport::diagnose(
                    HangCause::Deadlock,
                    self.technology,
                    self.sim.now(),
                    ranks,
                    hierarchy,
                    None,
                );
                report.partition = self.partition_at_hang(plan);
                Err(Box::new(report))
            }
            // A deadline that fires after every rank is done is not a
            // hang: the application completed inside its budget and the
            // only events left are protocol tail chatter — typically a
            // far-future RTO retransmit timer for a final segment whose
            // ACK a lossy plan ate. The chatter is self-limiting (capped
            // backoff, bounded retries), so cut it off. Event-budget and
            // livelock aborts stay fatal even with done drivers: those
            // mean the protocol layer itself stopped converging.
            Err(sim_report)
                if sim_report.kind == HangKind::DeadlineExceeded
                    && ranks.iter().all(|r| r.done) =>
            {
                Ok(())
            }
            Err(sim_report) => {
                self.sim.announce_hang(&sim_report);
                let mut report = HangReport::diagnose(
                    HangCause::Watchdog(sim_report.kind),
                    self.technology,
                    self.sim.now(),
                    ranks,
                    hierarchy,
                    Some(*sim_report),
                );
                report.partition = self.partition_at_hang(plan);
                Err(Box::new(report))
            }
        }
    }

    /// The fabric partition to blame for a hang: the one in effect at
    /// abort time, or — if the fabric had already healed — the first
    /// the routing timeline ever saw. `None` on single-switch runs and
    /// on fabrics whose fault schedule never disconnected anyone.
    fn partition_at_hang(&self, plan: &RunPlan) -> Option<PartitionReport> {
        let sched = plan.timeline.as_ref()?;
        sched
            .epoch_at(self.sim.now())
            .partition
            .clone()
            .or_else(|| sched.first_partition().cloned())
    }

    /// Frames dropped at switch output queues during the run, across
    /// every switch of the fabric.
    fn switch_drops(&self) -> u64 {
        self.switches
            .iter()
            .map(|&s| self.sim.component::<Switch>(s).total_drops())
            .sum()
    }

    /// Total retransmissions across the cluster, whichever stack did
    /// them: INIC recovery resends plus TCP RTO and fast retransmits.
    fn total_retransmits(&self) -> u64 {
        self.sum_counters(&["retransmits", "rto_retransmits", "fast_retransmits"])
    }

    /// The sum of every component's counters with one of `names`.
    fn sum_counters(&self, names: &[&str]) -> u64 {
        self.sim
            .stats()
            .counters()
            .filter(|((_, name), _)| names.contains(name))
            .map(|(_, v)| v)
            .sum()
    }

    /// Every rank's driver, in rank order.
    fn ranks<D: Recoverable>(&self) -> impl Iterator<Item = &D> + '_ {
        self.drivers.iter().map(|&d| self.sim.component::<D>(d))
    }

    /// The epilogue every runner shares once its result is verified:
    /// the span from the first start to the last finish, the lossless
    /// card's no-drop guarantee, the final audit, the fault telemetry
    /// (degraded ranks, the latest resume point) and the host's
    /// protocol costs.
    fn summarize<D: Recoverable>(&self, plan: &RunPlan) -> RunSummary {
        let (mut start, mut end) = (SimTime::MAX, SimTime::ZERO);
        for drv in self.ranks::<D>() {
            let (began, done) = drv.fo().span();
            start = start.min(began);
            end = end.max(done);
        }
        let switch_drops = self.switch_drops();
        if plan.card.is_some() && plan.lossless {
            assert_eq!(
                switch_drops, 0,
                "INIC schedule must never oversubscribe switch buffers"
            );
        }
        // The end-of-run audit pass (faulted runs only).
        let audit = self.audit.as_ref().map(|cfg| {
            audit::final_check(self.sim.stats(), cfg);
            AuditCounts::from_stats(self.sim.stats())
        });
        let (protocol_cpu, interrupts) = self.protocol_costs();
        RunSummary {
            total: end.since(start),
            switch_drops,
            protocol_cpu,
            interrupts,
            faults: self.fault_diagnostics::<D>(),
            audit,
            rejected_frames: self.sum_counters(&["rx_checksum_drops", "rx_decode_drops"]),
        }
    }

    /// Assemble the fault telemetry after a run: retransmits from
    /// whichever stack did them, stall/reconfigure counters from the
    /// drivers and cards, degradation and resume data from the drivers'
    /// failover cores.
    fn fault_diagnostics<D: Recoverable>(&self) -> FaultDiagnostics {
        let stats = self.sim.stats();
        let stalled_nodes = stats
            .counters()
            .filter(|((_, name), v)| *name == "stall_deferrals" && *v > 0)
            .count() as u64;
        let reconfig_windows_survived = stats
            .counters()
            .filter(|((_, name), _)| *name == "reconfig_windows_survived")
            .map(|(_, v)| v)
            .sum();
        FaultDiagnostics {
            retransmits: self.total_retransmits(),
            degraded_nodes: self.ranks::<D>().filter(|d| d.fo().degraded()).count() as u64,
            stalled_nodes,
            reconfig_windows_survived,
            resumed_from_phase: self
                .ranks::<D>()
                .filter_map(|d| d.fo().resumed_from())
                .max(),
        }
    }

    /// Maximum per-node protocol CPU time and total interrupts taken on
    /// the host side of the network path. On INIC technologies the host
    /// takes only the cards' completion interrupts and spends no
    /// protocol CPU at all.
    fn protocol_costs(&self) -> (SimDuration, u64) {
        if self.technology.is_inic() {
            let interrupts = self
                .nics
                .iter()
                .map(|&nic| self.sim.component::<InicCard>(nic).interrupts_raised())
                .sum();
            return (SimDuration::ZERO, interrupts);
        }
        let mut cpu = SimDuration::ZERO;
        let mut interrupts = 0u64;
        for &nic in &self.nics {
            let stack = self.sim.component::<TcpHostNic>(nic);
            cpu = cpu.max(stack.cpu_time());
            interrupts += stack.interrupt_totals().1;
        }
        (cpu, interrupts)
    }
}

/// What [`Wiring::summarize`] reports for every workload.
struct RunSummary {
    total: SimDuration,
    switch_drops: u64,
    protocol_cpu: SimDuration,
    interrupts: u64,
    faults: FaultDiagnostics,
    audit: Option<AuditCounts>,
    rejected_frames: u64,
}

/// The sequence every workload body shares: wire the cluster with one
/// `make_driver` driver per rank, run it under the plan's deadlines,
/// let `read` collect the finished drivers' timings and check the
/// result against its oracle, and summarize.
fn run<D: Recoverable, R>(
    spec: &ClusterSpec,
    plan: &RunPlan,
    make_driver: impl FnMut(usize, Attachment, FaultCtl) -> D,
    read: impl FnOnce(&Wiring) -> R,
) -> Result<(R, RunSummary), Box<HangReport>> {
    let mut w = wire(spec, plan, make_driver);
    w.run_to_completion::<D>(plan)?;
    let read = read(&w);
    Ok((read, w.summarize::<D>(plan)))
}

/// Run the 2D-FFT application on a `rows × rows` matrix. A run that
/// fails to terminate returns its structured [`HangReport`].
///
/// # Panics
/// Panics if `rows` is not a power of two or `spec.p` does not divide it.
pub(crate) fn fft(
    spec: &ClusterSpec,
    plan: &RunPlan,
    rows: usize,
) -> Result<FftRunResult, Box<HangReport>> {
    assert!(rows.is_power_of_two(), "matrix edge must be a power of two");
    assert!(
        spec.p >= 1 && rows.is_multiple_of(spec.p),
        "P must divide rows"
    );
    let matrix = random_matrix(rows, spec.seed);
    let slabs = split_row_blocks(&matrix, spec.p);
    let kernels = HostKernels::athlon_1ghz();
    let make = |rank, attachment, fault_ctl| {
        FftDriver::new(
            rank,
            spec.p,
            rows,
            slabs[rank].clone(),
            attachment,
            fault_ctl,
            kernels.clone(),
        )
    };
    let ((compute, transpose, transpose_compute, transpose_comm), s) =
        run(spec, plan, make, |w: &Wiring| {
            let [mut compute, mut transpose, mut transpose_compute, mut transpose_comm] =
                [SimDuration::ZERO; 4];
            let mut out_slabs: Vec<Matrix> = Vec::new();
            for drv in w.ranks::<FftDriver>() {
                let t = &drv.timings;
                compute = compute.max(t.compute);
                transpose = transpose.max(t.transpose);
                transpose_compute = transpose_compute.max(t.transpose_compute);
                transpose_comm = transpose_comm.max(t.transpose - t.transpose_compute);
                out_slabs.push(drv.result().clone());
            }
            if spec.verify {
                let diff = join_row_blocks(&out_slabs).max_abs_diff(&fft_2d(&matrix));
                assert!(
                    diff < 1e-6,
                    "distributed FFT diverges from serial oracle by {diff}"
                );
            }
            (compute, transpose, transpose_compute, transpose_comm)
        })?;
    Ok(FftRunResult {
        total: s.total,
        compute,
        transpose,
        transpose_compute,
        transpose_comm,
        verified: spec.verify,
        switch_drops: s.switch_drops,
        protocol_cpu: s.protocol_cpu,
        interrupts: s.interrupts,
        faults: s.faults,
        audit: s.audit,
        rejected_frames: s.rejected_frames,
    })
}

/// The key distribution of a sort workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KeyDistribution {
    /// Uniform keys — the paper's stated (and admittedly unrealistic)
    /// assumption.
    Uniform,
    /// Gaussian keys, as in the NAS benchmarks the paper cites — the
    /// skewed case its uniform assumption dodges.
    Gaussian,
}

/// How keys are assigned to destination ranks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PartitionStrategy {
    /// Top bits of the key (the paper's implicit choice; balanced only
    /// for uniform keys).
    TopBits,
    /// Range splitters chosen from a pre-sort sample — the fix the
    /// paper points at for non-uniform data ("sampling in a pre-sort
    /// phase helps address the shortcomings of our assumption").
    SampledSplitters,
}

/// Run the integer sort of `total_keys` keys spread evenly over the
/// nodes, with the given key distribution and partitioning strategy. A
/// hung run returns a structured [`HangReport`] naming the stuck phase
/// and rank.
pub(crate) fn sort(
    spec: &ClusterSpec,
    plan: &RunPlan,
    total_keys: u64,
    distribution: KeyDistribution,
    strategy: PartitionStrategy,
) -> Result<SortRunResult, Box<HangReport>> {
    assert!(spec.p >= 1);
    let per_node = (total_keys / spec.p as u64) as usize;
    let mut inputs: Vec<Vec<u32>> = match distribution {
        KeyDistribution::Uniform => distributed_uniform_keys(per_node, spec.p, spec.seed),
        KeyDistribution::Gaussian => (0..spec.p)
            .map(|rank| gaussian_keys(per_node, spec.seed.wrapping_add(rank as u64 * 0x9E37_79B9)))
            .collect(),
    };
    // The pre-sort sampling phase: each rank contributes a sparse sample
    // of its keys; the shared splitter table is the sample's quantiles.
    // Its cost (a few KiB broadcast) is negligible at these scales and
    // is not charged.
    let splitters = match strategy {
        PartitionStrategy::TopBits => None,
        PartitionStrategy::SampledSplitters => {
            let step = (per_node / 128).max(1);
            let sample: Vec<u32> = inputs
                .iter()
                .flat_map(|keys| keys.iter().step_by(step).copied())
                .collect();
            Some(splitters_from_sample(&sample, spec.p))
        }
    };
    let variant = match spec.technology {
        Technology::FastEthernet | Technology::GigabitTcp => SortVariant::HostOnly,
        Technology::InicIdeal => SortVariant::InicFull,
        Technology::InicPrototype => SortVariant::InicTwoPhase,
        Technology::InicProtocol => SortVariant::ProtocolOnly,
    };
    let kernels = HostKernels::athlon_1ghz();
    // Only verification reads the inputs again; otherwise the drivers
    // take them.
    let mut taken = if spec.verify {
        Vec::new()
    } else {
        std::mem::take(&mut inputs)
    };
    let make = |rank: usize, attachment, fault_ctl| {
        let keys = if spec.verify {
            inputs[rank].clone()
        } else {
            std::mem::take(&mut taken[rank])
        };
        let kernels = kernels.clone();
        let mut driver =
            SortDriver::new(rank, spec.p, keys, variant, attachment, fault_ctl, kernels);
        if let Some(sp) = &splitters {
            driver = driver.with_splitters(sp.clone());
        }
        driver
    };
    let ((bucket1, comm, bucket2, count), s) = run(spec, plan, make, |w: &Wiring| {
        let [mut bucket1, mut comm, mut bucket2, mut count] = [SimDuration::ZERO; 4];
        // Concatenated per-rank outputs form the globally sorted key
        // sequence; collected for verification only.
        let mut got: Vec<u32> = Vec::new();
        for drv in w.ranks::<SortDriver>() {
            let t = &drv.timings;
            bucket1 = bucket1.max(t.bucket1);
            comm = comm.max(t.comm);
            bucket2 = bucket2.max(t.bucket2);
            count = count.max(t.count);
            if spec.verify {
                got.extend_from_slice(drv.result());
            }
        }
        if spec.verify {
            // Equal (as a multiset and order) to a serial sort of all inputs.
            assert!(is_sorted(&got), "global output not sorted");
            let mut expect: Vec<u32> = inputs.concat();
            expect.sort_unstable();
            assert_eq!(got, expect, "distributed sort diverges from serial sort");
        }
        (bucket1, comm, bucket2, count)
    })?;
    Ok(SortRunResult {
        total: s.total,
        bucket1,
        comm,
        bucket2,
        count,
        verified: spec.verify,
        switch_drops: s.switch_drops,
        protocol_cpu: s.protocol_cpu,
        interrupts: s.interrupts,
        faults: s.faults,
        audit: s.audit,
        rejected_frames: s.rejected_frames,
    })
}

/// Result of one collective-engine run.
#[derive(Clone, Debug)]
pub struct CollRunResult {
    /// Wall time from start (post-configuration) to the last node done.
    pub total: SimDuration,
    /// Max per-node wall time spent waiting on round transfers.
    pub comm: SimDuration,
    /// Max per-node host compute (folds on the host paths, modelled
    /// local sweeps). Zero for pure collectives on the combined INIC.
    pub compute: SimDuration,
    /// Whether every node's output matched the first-principles oracle.
    pub verified: bool,
    /// What the fault plan did to the run (all zeros on a clean run).
    pub faults: FaultDiagnostics,
    /// What the online Auditor did (`None` on runs without one, i.e.
    /// without a fault plan).
    pub audit: Option<AuditCounts>,
    /// Frames a receiver discarded because they failed the wire
    /// codec's length, padding or checksum check: TCP
    /// `rx_checksum_drops` plus INIC `rx_decode_drops`. Nonzero only
    /// under frame corruption.
    pub rejected_frames: u64,
}

/// The acc-coll execution-path class a technology reduces to.
pub fn path_class(technology: Technology) -> PathClass {
    match technology.card() {
        None => PathClass::HostTcp,
        Some((_, _, InicMode::ProtocolProcessor)) => PathClass::InicProtocol,
        Some((_, _, InicMode::Combined | InicMode::ComputeAccelerator)) => PathClass::InicCombined,
    }
}

/// Policy-select the algorithm for one collective cell on a
/// technology (message size × processor count × execution path).
pub fn select_algorithm(
    technology: Technology,
    op: CollectiveOp,
    p: usize,
    elems: usize,
) -> Algorithm {
    acc_coll::select(op, p, elems, path_class(technology))
}

/// Pre-validate the offloaded datapath of every rank against the
/// technology's device, *before* any cluster is wired.
///
/// Returns `Ok(None)` for the host-TCP technologies (nothing to
/// offload) and one CLB-checked [`OffloadPlan`] per rank for the INIC
/// technologies.
///
/// # Errors
/// [`OffloadError::InsufficientLogic`] when a rank's operator pipeline
/// exceeds the device's CLB pool — the structured over-capacity
/// rejection (a 128-way collective on the prototype card, say).
pub fn plan_collective_offload(
    technology: Technology,
    schedules: &[Schedule],
) -> Result<Option<Vec<OffloadPlan>>, OffloadError> {
    let Some((device, _, mode)) = technology.card() else {
        return Ok(None);
    };
    let p = schedules.len();
    schedules
        .iter()
        .map(|s| acc_coll::offload::plan(s, p, mode, &device))
        .collect::<Result<Vec<OffloadPlan>, OffloadError>>()
        .map(Some)
}

/// Deterministic per-rank contributions with an exactly computable
/// sum (integers below 2^52 stay exact in f64 regardless of the
/// reduction order): `(rank + 1) · (i mod 1000 + 1)`, built as one
/// 1000-element period repeated. Built once per rank and shared by the
/// rank's driver and the oracle.
fn collective_input(rank: usize, elems: usize) -> Rc<[f64]> {
    const PERIOD: usize = 1000;
    let period: Vec<f64> = (1..=PERIOD.min(elems))
        .map(|k| ((rank + 1) * k) as f64)
        .collect();
    let mut at = 0;
    // A mapped range is an exact-size iterator, so the shared slice is
    // allocated once, at its final size.
    (0..elems)
        .map(|_| {
            let v = period[at];
            at = if at + 1 == PERIOD { 0 } else { at + 1 };
            v
        })
        .collect()
}

/// Run collective `op` through the engine on the plan's schedules. A
/// hung run returns its structured [`HangReport`].
///
/// # Panics
/// Panics if the offload plan exceeds the device's CLB budget (pre-check
/// with [`plan_collective_offload`] to get the structured error
/// instead). An unsupported (op, algorithm, p, elems) cell panics while
/// the plan builds its schedules, before this runs.
pub(crate) fn collective(
    spec: &ClusterSpec,
    plan: &RunPlan,
    op: CollectiveOp,
    elems: usize,
) -> Result<CollRunResult, Box<HangReport>> {
    // Debug builds also prove reduce conservation (halo stencils have no
    // single-collective oracle to prove it against).
    #[cfg(debug_assertions)]
    if let Err(vs) = acc_coll::verify::verify_conservation(op, elems, &plan.schedules) {
        for v in &vs {
            eprintln!("{v}");
        }
        panic!(
            "static conservation verification failed: {} violation(s)",
            vs.len()
        );
    }
    let inputs: Vec<Rc<[f64]>> = (0..spec.p)
        .map(|rank| collective_input(rank, elems))
        .collect();
    run_schedules(spec, plan, &inputs, |results| {
        let expect = acc_coll::oracle(op, spec.p, &inputs);
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(r, &expect[rank], "rank {rank} {op} output mismatch");
        }
    })
}

/// Run the halo-exchange workload on the plan's schedules: stencil
/// sweeps over a 1-D strip decomposition of `elems` cells per rank,
/// each sweep a neighbour halo exchange plus a local update, closed by
/// a residual allreduce (allreduce-heavy by construction). A hung run
/// returns its structured [`HangReport`].
pub(crate) fn halo(
    spec: &ClusterSpec,
    plan: &RunPlan,
    elems: usize,
) -> Result<CollRunResult, Box<HangReport>> {
    let inputs: Vec<Rc<[f64]>> = (0..spec.p)
        .map(|rank| collective_input(rank, elems))
        .collect();
    run_schedules(spec, plan, &inputs, |results| {
        let expect = acc_coll::plan::run_lockstep(&plan.schedules, &inputs);
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(r, &expect[rank], "rank {rank} halo output mismatch");
        }
    })
}

/// Shared engine runner: wire one [`CollDriver`] per rank over the
/// plan's schedules, run under the plan's deadlines, aggregate timings,
/// and verify through `check` (which asserts on mismatch).
fn run_schedules(
    spec: &ClusterSpec,
    plan: &RunPlan,
    inputs: &[Rc<[f64]>],
    check: impl FnOnce(&[Vec<f64>]),
) -> Result<CollRunResult, Box<HangReport>> {
    let schedules = &plan.schedules;
    let offload = plan_collective_offload(spec.technology, schedules)
        .unwrap_or_else(|e| panic!("collective offload rejected: {e}"));
    // Under a rank-local policy the survivors keep their datapaths while
    // the stranded ranks' legs reroute over TCP: re-validate each
    // survivor's shrunken offload against the CLB budget before wiring
    // anything, so an over-budget degraded bitstream is a structured
    // pre-flight failure, not a sim-time surprise. Under full restart
    // every rank abandons its card, so no degraded bitstream is loaded.
    let dead: BTreeSet<usize> = plan.stranded.iter().map(|&(r, _)| r as usize).collect();
    let keeps_cards = plan.policy != RecoveryPolicy::FullRestart && !dead.is_empty();
    if let Some((device, _, mode)) = plan.card.filter(|_| keeps_cards) {
        for (rank, s) in schedules.iter().enumerate() {
            if !dead.contains(&rank) {
                acc_coll::recovery::degraded_offload(s, spec.p, &dead, 0, mode, &device)
                    .unwrap_or_else(|e| {
                        panic!("degraded collective offload rejected for rank {rank}: {e}")
                    });
            }
        }
    }
    // Debug builds statically prove leg pairing and deadlock-freedom
    // before wiring the engine. Release builds skip the pass — the same
    // proofs run offline via `acc-verify --schedules`.
    #[cfg(debug_assertions)]
    if let Err(vs) = acc_coll::verify::verify_schedules(schedules) {
        for v in &vs {
            eprintln!("{v}");
        }
        panic!(
            "static schedule verification failed: {} violation(s)",
            vs.len()
        );
    }
    let kernels = HostKernels::athlon_1ghz();
    let make = |rank, attachment, fault_ctl| {
        CollDriver::new(
            rank,
            schedules[rank].clone(),
            Rc::clone(&inputs[rank]),
            attachment,
            fault_ctl,
            kernels.clone(),
            offload.as_ref().map(|plans| plans[rank].clone()),
        )
    };
    let ((comm, compute), s) = run(spec, plan, make, |w: &Wiring| {
        let [mut comm, mut compute] = [SimDuration::ZERO; 2];
        for drv in w.ranks::<CollDriver>() {
            comm = comm.max(drv.timings.comm);
            compute = compute.max(drv.timings.compute);
        }
        // Only the oracle reads the outputs; copy them out only for it.
        if spec.verify {
            let results: Vec<Vec<f64>> = w.ranks::<CollDriver>().map(CollDriver::result).collect();
            check(&results);
        }
        (comm, compute)
    })?;
    Ok(CollRunResult {
        total: s.total,
        comm,
        compute,
        verified: spec.verify,
        faults: s.faults,
        audit: s.audit,
        rejected_frames: s.rejected_frames,
    })
}
