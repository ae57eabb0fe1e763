//! Cluster construction and the end-to-end workload bodies.
//!
//! A [`ClusterSpec`] describes a P-node cluster of one [`Technology`].
//! The workload bodies here (FFT, sort, engine collective, halo) build
//! it, run the application to completion, verify the result against a
//! serial oracle, and return a timing decomposition. They are private
//! to the crate: [`crate::RunRequest::execute`] is their one caller and
//! the one way to run a cluster.

use acc_algos::fft::{fft_2d, Matrix};
use acc_algos::sort::is_sorted;
use acc_algos::sort::splitters_from_sample;
use acc_algos::transpose::{join_row_blocks, split_row_blocks};
use acc_algos::workload::{distributed_uniform_keys, gaussian_keys, random_matrix};
use acc_chaos::{FaultPlan, LinkId};
use acc_coll::{Algorithm, CollectiveOp, OffloadError, OffloadPlan, PathClass, Schedule};
use acc_fpga::{
    CardPorts, FpgaDevice, InicCard, InicKill, InicMode, InicReconfigure, CREDIT_WINDOW,
};
use acc_host::{HostKernels, InterruptCosts, ModerationPolicy, StallSchedule};
use std::collections::BTreeMap;
use std::rc::Rc;

use acc_net::port::EgressPort;
use acc_net::routing::Attachment as FabricAttachment;
use acc_net::{
    compute_schedule, EthernetKind, FabricSchedule, FabricSpec, LinkParams, MacAddr,
    PartitionReport, RouteUpdate, Switch, SwitchKill, SwitchParams, TrunkOutage,
};
use acc_proto::{HostPathCosts, TcpHostNic, TcpParams};
use acc_sim::{Component, ComponentId, HangKind, SimDuration, SimTime, Simulation};

use crate::audit::{self, AuditConfig, AuditCounts, Auditor};
use crate::deadline::DeadlineHierarchy;
use crate::drivers::coll::CollDriver;
use crate::drivers::fft::FftDriver;
use crate::drivers::sort::{SortDriver, SortVariant};
use crate::drivers::{
    Attachment, CardFailed, DriverProgress, FaultCtl, Recoverable, RecoveryCoordinator,
    RecoveryPolicy,
};
use crate::liveness::{HangCause, HangReport};
use crate::report::FaultDiagnostics;
use crate::runner::Workload;

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
        matches!(
            self,
            Technology::InicIdeal | Technology::InicPrototype | Technology::InicProtocol
        )
    }

    fn link_kind(self) -> EthernetKind {
        match self {
            Technology::FastEthernet => EthernetKind::Fast,
            _ => EthernetKind::Gigabit,
        }
    }
}

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
    sim: Simulation,
    drivers: Vec<ComponentId>,
    nics: Vec<ComponentId>,
    switches: Vec<ComponentId>,
    technology: Technology,
    /// The precomputed routing timeline; present only on multi-switch
    /// fabrics. Hangs consult it to attribute the stall to a partition.
    fabric: Option<FabricSchedule>,
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

/// Build the sim, switch, and per-node network attachment for `spec`;
/// `make_driver` turns each rank's attachment (plus its fault-handling
/// configuration) into its driver.
fn wire<D: Component + 'static>(
    spec: &ClusterSpec,
    mut make_driver: impl FnMut(usize, Attachment, FaultCtl) -> D,
) -> Wiring {
    let mut sim = Simulation::new(spec.seed);
    if spec.quiet {
        sim.set_quiet(true);
    }
    let link = LinkParams::for_kind(spec.technology.link_kind());
    let plan = spec.fault_plan.as_ref();
    let topo = spec.fabric.build(spec.p);
    let fabric_mode = spec.fabric != FabricSpec::SingleSwitch;
    if let Some(pl) = plan {
        if fabric_mode || pl.has_fabric_faults() {
            // Topology-aware re-validation: fabric faults must name real
            // trunks and switches of this concrete shape, and can never
            // apply to the single switch (no trunks to cut).
            if let Err(e) = pl.validate_for_fabric(spec.p as u32, SimTime::MAX, &spec.fabric) {
                panic!("invalid fault plan for fabric {}: {e}", spec.fabric);
            }
        }
    }
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
    // A dead edge switch takes every rank homed on it off the fabric at
    // one instant — indistinguishable, from the cluster's point of
    // view, from all those cards dying at once. Treat the victims as
    // card-failure casualties so the same recovery machinery (fallback
    // NIC, round checkpoints, mixed-technology replan) applies; their
    // fallback NICs are dual-homed on a *different* edge switch
    // ([`Topology::fallback_home`]), so the failure never strands both
    // attachment points.
    let switch_kills: Vec<(usize, SimTime)> = plan
        .map(|pl| {
            pl.switch_failures()
                .iter()
                .map(|&(s, at)| (s as usize, at))
                .collect()
        })
        .unwrap_or_default();
    let mut victim_kills: Vec<(u32, SimTime)> = Vec::new();
    for &(s, at) in &switch_kills {
        for rank in 0..spec.p {
            if topo.home[rank] == s {
                victim_kills.push((rank as u32, at));
            }
        }
    }
    // Switches the plan will kill make useless fallback homes: a rank
    // dual-homed there would lose both attachment points at once.
    let doomed: std::collections::BTreeSet<usize> = switch_kills.iter().map(|&(s, _)| s).collect();
    let fb_home_of = |rank: usize| topo.fallback_home_avoiding(rank, &doomed);
    // When the plan can kill a card (or an edge switch under an INIC
    // technology), every node gets a commodity fallback NIC on a second
    // switch port: whichever recovery policy applies, every rank needs
    // the path — under full restart the whole collective degrades,
    // under rank-local recovery healthy ranks use it for the
    // mixed-technology side streams. The fallback links carry no
    // impairments — the scenario under test is the failure itself.
    let with_fallback = spec.technology.is_inic()
        && (plan.is_some_and(FaultPlan::has_card_failures) || !victim_kills.is_empty());
    let fallback_macs: Vec<MacAddr> = (0..spec.p).map(|i| MacAddr::for_node(i, 1)).collect();
    let fallback_ids: Vec<ComponentId> = if with_fallback {
        (0..spec.p).map(|_| sim.reserve_id()).collect()
    } else {
        Vec::new()
    };
    // A pure protocol processor has no card datapath worth keeping, so
    // its only recovery is the full restart.
    let policy = if spec.technology == Technology::InicProtocol {
        RecoveryPolicy::FullRestart
    } else {
        spec.recovery
    };
    // Rank-local recovery needs the coordinator that agrees on the
    // cluster-wide resume phase.
    let coordinator = if with_fallback && policy != RecoveryPolicy::FullRestart {
        Some(sim.reserve_id())
    } else {
        None
    };
    let mut port_labels: Vec<String> = Vec::new();
    for rank in 0..spec.p {
        let home = topo.home[rank];
        let sw_port = switches[home].attach(macs[rank], nic_ids[rank], 0, link);
        let mut uplink = EgressPort::new(
            link.rate,
            link.prop_delay,
            acc_net::presets::NIC_BUFFER,
            switch_ids[home],
            sw_port,
            0,
        );
        if let Some(pl) = plan {
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
        let fallback = if with_fallback {
            // On the single switch `fallback_home` is the same switch —
            // the second port of the original wiring. On a fabric it is
            // the next host-bearing edge switch that no planned switch
            // kill dooms.
            let fb_home = fb_home_of(rank);
            let fb_port =
                switches[fb_home].attach(fallback_macs[rank], fallback_ids[rank], 0, link);
            let mut fb_uplink = EgressPort::new(
                link.rate,
                link.prop_delay,
                acc_net::presets::NIC_BUFFER,
                switch_ids[fb_home],
                fb_port,
                0,
            );
            fb_uplink.set_stats_label(format!("fb{rank}"));
            switches[fb_home].set_port_stats_label(fb_port, format!("swfb{rank}"));
            port_labels.push(format!("fb{rank}"));
            port_labels.push(format!("swfb{rank}"));
            sim.register(
                fallback_ids[rank],
                TcpHostNic::new(
                    format!("tcp-fb{rank}"),
                    fallback_macs[rank],
                    driver_ids[rank],
                    fb_uplink,
                    TcpParams::default(),
                    HostPathCosts::athlon_pci(),
                    InterruptCosts::athlon_linux24(),
                    ModerationPolicy::syskonnect_default(),
                ),
            );
            Some((fallback_ids[rank], fallback_macs.clone()))
        } else {
            None
        };
        // INIC reliability (NACK/retransmit recovery) turns on for any
        // faulted run, and also for every multi-switch fabric: the
        // card's no-loss scheduling guarantee only covers the single
        // switch it was derived for — shared trunks can legitimately
        // drop under contention, and a re-routed path must recover the
        // frames the old one had in flight.
        let attachment = match spec.technology {
            Technology::FastEthernet | Technology::GigabitTcp => {
                sim.register(
                    nic_ids[rank],
                    TcpHostNic::new(
                        format!("tcp{rank}"),
                        macs[rank],
                        driver_ids[rank],
                        uplink,
                        TcpParams::default(),
                        HostPathCosts::athlon_pci(),
                        InterruptCosts::athlon_linux24(),
                        ModerationPolicy::syskonnect_default(),
                    ),
                );
                Attachment::Tcp {
                    nic: nic_ids[rank],
                    macs: macs.clone(),
                }
            }
            Technology::InicIdeal | Technology::InicProtocol => {
                sim.register(
                    nic_ids[rank],
                    InicCard::new(
                        format!("inic{rank}"),
                        rank as u32,
                        macs[rank],
                        driver_ids[rank],
                        uplink,
                        FpgaDevice::virtex_next_gen(),
                        CardPorts::ideal(),
                    )
                    .with_reliability(plan.is_some() || fabric_mode)
                    .with_peers(macs.clone()),
                );
                Attachment::Inic {
                    card: nic_ids[rank],
                    macs: macs.clone(),
                    mode: if spec.technology == Technology::InicProtocol {
                        InicMode::ProtocolProcessor
                    } else {
                        InicMode::Combined
                    },
                    fallback,
                }
            }
            Technology::InicPrototype => {
                sim.register(
                    nic_ids[rank],
                    InicCard::new(
                        format!("inic{rank}"),
                        rank as u32,
                        macs[rank],
                        driver_ids[rank],
                        uplink,
                        FpgaDevice::xc4085xla(),
                        CardPorts::aceii(),
                    )
                    .with_reliability(plan.is_some() || fabric_mode)
                    .with_peers(macs.clone()),
                );
                Attachment::Inic {
                    card: nic_ids[rank],
                    macs: macs.clone(),
                    mode: InicMode::Combined,
                    fallback,
                }
            }
        };
        let fault_ctl = FaultCtl {
            stalls: plan
                .map(|pl| StallSchedule::new(pl.stall_windows(rank as u32)))
                .unwrap_or_default(),
            policy,
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
            if let Some(pl) = plan {
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
    // Precompute the routing timeline and arm the fabric: epoch-0
    // tables install before the first event, later epochs swap in via
    // RouteUpdate at their boundary instants, switch deaths fire as
    // SwitchKill. All of it is derived deterministically from the spec,
    // so identical specs wire identical fabrics at any thread count.
    let fabric_sched = if fabric_mode {
        let mut attachments: Vec<FabricAttachment> = (0..spec.p)
            .map(|rank| FabricAttachment {
                mac: macs[rank],
                switch: topo.home[rank],
                rank,
            })
            .collect();
        if with_fallback {
            attachments.extend((0..spec.p).map(|rank| FabricAttachment {
                mac: fallback_macs[rank],
                switch: fb_home_of(rank),
                rank,
            }));
        }
        let outages: Vec<TrunkOutage> = plan
            .map(|pl| {
                pl.link_downs()
                    .iter()
                    .map(|&(a, b, from, until)| TrunkOutage {
                        a: a as usize,
                        b: b as usize,
                        from,
                        until,
                    })
                    .collect()
            })
            .unwrap_or_default();
        let sched = compute_schedule(&topo, &attachments, &outages, &switch_kills);
        for (s, sw) in switches.iter_mut().enumerate() {
            sw.enable_routing(to_port_routes(&sched.epochs[0].tables[s], &trunk_port[s]));
        }
        for e in &sched.epochs[1..] {
            for (s, &sid) in switch_ids.iter().enumerate() {
                sim.schedule_at(
                    e.start,
                    sid,
                    RouteUpdate {
                        routes: to_port_routes(&e.tables[s], &trunk_port[s]),
                    },
                );
            }
        }
        for &(s, at) in &switch_kills {
            sim.schedule_at(at, switch_ids[s], SwitchKill);
        }
        Some(sched)
    } else {
        None
    };
    for (&sid, sw) in switch_ids.iter().zip(switches) {
        sim.register(sid, sw);
    }
    if let Some(coord) = coordinator {
        sim.register(coord, RecoveryCoordinator::new(driver_ids.clone()));
    }
    for &d in &driver_ids {
        sim.schedule_at(SimTime::ZERO, d, ());
    }
    let mut audit_cfg = None;
    if let Some(pl) = plan {
        // Faulted runs keep a trace tail so an Auditor violation dumps
        // the events around the offence, and run under its watch.
        sim.enable_trace(256);
        let cfg = AuditConfig {
            ports: port_labels,
            cards: if spec.technology.is_inic() {
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
        sim.schedule_at(SimTime::ZERO, auditor_id, ());
        audit_cfg = Some(cfg);
    }
    if spec.technology.is_inic() {
        if let Some(pl) = plan {
            // Schedule the card deaths: the card itself goes dark, and
            // every driver is told so the cluster can recover under the
            // active policy.
            for (node, at) in pl.card_failures() {
                let node_idx = node as usize;
                assert!(node_idx < spec.p, "fault plan kills a card beyond P");
                sim.schedule_at(at, nic_ids[node_idx], InicKill);
                for &d in &driver_ids {
                    sim.schedule_at(at, d, CardFailed { node });
                }
            }
            // Switch-failure victims: every rank homed on a dead edge
            // switch loses its primary datapath at that instant. The
            // kill reuses the card-death path wholesale — the card goes
            // dark, every driver hears CardFailed, and recovery resumes
            // from the last round checkpoint over the dual-homed
            // fallback NIC once the coordinator agrees.
            for &(node, at) in &victim_kills {
                sim.schedule_at(at, nic_ids[node as usize], InicKill);
                for &d in &driver_ids {
                    sim.schedule_at(at, d, CardFailed { node });
                }
            }
            // Schedule the transient reconfiguration windows: the card
            // buffers and recovers on its own, so only the card hears
            // about them. (On commodity technologies there is no card —
            // the window is a no-op by construction.)
            for (node, at, hold) in pl.card_reconfigures() {
                let node_idx = node as usize;
                assert!(node_idx < spec.p, "fault plan reconfigures a card beyond P");
                sim.schedule_at(at, nic_ids[node_idx], InicReconfigure { hold });
            }
        }
    }
    Wiring {
        sim,
        drivers: driver_ids,
        nics: nic_ids,
        switches: switch_ids,
        technology: spec.technology,
        fabric: fabric_sched,
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
    fn run_to_completion<D: Recoverable>(
        &mut self,
        hierarchy: &DeadlineHierarchy,
    ) -> Result<(), Box<HangReport>> {
        let wd = hierarchy.watchdog();
        // acc-lint: allow(R6, reason = "this is the deadline-aware wrapper itself: the watchdog built two lines up bounds the run")
        let outcome = self.sim.run_guarded(&wd);
        let ranks: Vec<DriverProgress> = self.ranks::<D>().map(D::progress).collect();
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
                report.partition = self.partition_at_hang();
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
                report.partition = self.partition_at_hang();
                Err(Box::new(report))
            }
        }
    }

    /// The fabric partition to blame for a hang: the one in effect at
    /// abort time, or — if the fabric had already healed — the first
    /// the routing timeline ever saw. `None` on single-switch runs and
    /// on fabrics whose fault schedule never disconnected anyone.
    fn partition_at_hang(&self) -> Option<PartitionReport> {
        let sched = self.fabric.as_ref()?;
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
    /// the span from the first start to the last finish, the
    /// single-switch INIC no-drop guarantee, the final audit, and the
    /// fault telemetry (degraded ranks, the latest resume point).
    fn summarize<D: Recoverable>(&self, spec: &ClusterSpec) -> RunSummary {
        let (mut start, mut end) = (SimTime::MAX, SimTime::ZERO);
        for drv in self.ranks::<D>() {
            let (began, done) = drv.span();
            start = start.min(began);
            end = end.max(done);
        }
        let switch_drops = self.switch_drops();
        // The card's no-loss scheduling guarantee is single-switch: shared
        // trunks of a multi-switch fabric can contend, and INIC reliability
        // recovers those drops instead.
        if spec.technology.is_inic()
            && spec.fault_plan.is_none()
            && spec.fabric == FabricSpec::SingleSwitch
        {
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
        RunSummary {
            total: end.since(start),
            switch_drops,
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
        match self.technology {
            Technology::FastEthernet | Technology::GigabitTcp => {
                let mut cpu = SimDuration::ZERO;
                let mut interrupts = 0u64;
                for &nic in &self.nics {
                    let stack = self.sim.component::<TcpHostNic>(nic);
                    cpu = cpu.max(stack.cpu_time());
                    interrupts += stack.interrupt_totals().1;
                }
                (cpu, interrupts)
            }
            Technology::InicIdeal | Technology::InicPrototype | Technology::InicProtocol => {
                let interrupts = self
                    .nics
                    .iter()
                    .map(|&nic| self.sim.component::<InicCard>(nic).interrupts_raised())
                    .sum();
                (SimDuration::ZERO, interrupts)
            }
        }
    }
}

/// What [`Wiring::summarize`] reports for every workload.
struct RunSummary {
    total: SimDuration,
    switch_drops: u64,
    faults: FaultDiagnostics,
    audit: Option<AuditCounts>,
    rejected_frames: u64,
}

/// Run the 2D-FFT application on a `rows × rows` matrix. A run that
/// fails to terminate returns its structured [`HangReport`].
///
/// # Panics
/// Panics if `rows` is not a power of two or `spec.p` does not divide it.
pub(crate) fn fft(spec: ClusterSpec, rows: usize) -> Result<FftRunResult, Box<HangReport>> {
    assert!(rows.is_power_of_two(), "matrix edge must be a power of two");
    assert!(
        spec.p >= 1 && rows.is_multiple_of(spec.p),
        "P must divide rows"
    );
    let matrix = random_matrix(rows, spec.seed);
    let slabs = split_row_blocks(&matrix, spec.p);
    let kernels = HostKernels::athlon_1ghz();
    let mut w = wire(&spec, |rank, attachment, fault_ctl| {
        FftDriver::new(
            rank,
            spec.p,
            rows,
            slabs[rank].clone(),
            attachment,
            kernels.clone(),
        )
        .with_fault_ctl(fault_ctl)
    });
    let hierarchy = DeadlineHierarchy::for_run(&spec, &Workload::Fft { rows });
    w.run_to_completion::<FftDriver>(&hierarchy)?;
    let mut compute = SimDuration::ZERO;
    let mut transpose = SimDuration::ZERO;
    let mut transpose_compute = SimDuration::ZERO;
    let mut transpose_comm = SimDuration::ZERO;
    let mut out_slabs: Vec<Matrix> = Vec::new();
    for drv in w.ranks::<FftDriver>() {
        let t = &drv.timings;
        compute = compute.max(t.compute);
        transpose = transpose.max(t.transpose);
        transpose_compute = transpose_compute.max(t.transpose_compute);
        transpose_comm = transpose_comm.max(t.transpose - t.transpose_compute);
        out_slabs.push(drv.result().clone());
    }
    let verified = if spec.verify {
        let got = join_row_blocks(&out_slabs);
        let expect = fft_2d(&matrix);
        let diff = got.max_abs_diff(&expect);
        assert!(
            diff < 1e-6,
            "distributed FFT diverges from serial oracle by {diff}"
        );
        true
    } else {
        false
    };
    let summary = w.summarize::<FftDriver>(&spec);
    let (protocol_cpu, interrupts) = w.protocol_costs();
    Ok(FftRunResult {
        total: summary.total,
        compute,
        transpose,
        transpose_compute,
        transpose_comm,
        verified,
        switch_drops: summary.switch_drops,
        protocol_cpu,
        interrupts,
        faults: summary.faults,
        audit: summary.audit,
        rejected_frames: summary.rejected_frames,
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
    spec: ClusterSpec,
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
    let mut w = wire(&spec, |rank, attachment, fault_ctl| {
        // Only verification reads the inputs again; otherwise the
        // drivers take them.
        let keys = if spec.verify {
            inputs[rank].clone()
        } else {
            std::mem::take(&mut inputs[rank])
        };
        let mut driver = SortDriver::new(rank, spec.p, keys, variant, attachment, kernels.clone())
            .with_fault_ctl(fault_ctl);
        if let Some(sp) = &splitters {
            driver = driver.with_splitters(sp.clone());
        }
        driver
    });
    let hierarchy = DeadlineHierarchy::for_run(
        &spec,
        &Workload::Sort {
            total_keys,
            distribution,
            strategy,
        },
    );
    w.run_to_completion::<SortDriver>(&hierarchy)?;
    let (mut bucket1, mut comm, mut bucket2, mut count) = (
        SimDuration::ZERO,
        SimDuration::ZERO,
        SimDuration::ZERO,
        SimDuration::ZERO,
    );
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
    let verified = if spec.verify {
        // Equal (as a multiset and order) to a serial sort of all inputs.
        assert!(is_sorted(&got), "global output not sorted");
        let mut expect: Vec<u32> = inputs.concat();
        expect.sort_unstable();
        assert_eq!(got, expect, "distributed sort diverges from serial sort");
        true
    } else {
        false
    };
    let summary = w.summarize::<SortDriver>(&spec);
    let (protocol_cpu, interrupts) = w.protocol_costs();
    Ok(SortRunResult {
        total: summary.total,
        bucket1,
        comm,
        bucket2,
        count,
        verified,
        switch_drops: summary.switch_drops,
        protocol_cpu,
        interrupts,
        faults: summary.faults,
        audit: summary.audit,
        rejected_frames: summary.rejected_frames,
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
    match technology {
        Technology::FastEthernet | Technology::GigabitTcp => PathClass::HostTcp,
        Technology::InicIdeal | Technology::InicPrototype => PathClass::InicCombined,
        Technology::InicProtocol => PathClass::InicProtocol,
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
    let Some((device, mode)) = inic_device_mode(technology) else {
        return Ok(None);
    };
    let p = schedules.len();
    schedules
        .iter()
        .map(|s| acc_coll::offload::plan(s, p, mode, &device))
        .collect::<Result<Vec<OffloadPlan>, OffloadError>>()
        .map(Some)
}

/// The device/mode pair each INIC technology configures, or `None` for
/// the host-TCP technologies.
fn inic_device_mode(technology: Technology) -> Option<(FpgaDevice, InicMode)> {
    match technology {
        Technology::FastEthernet | Technology::GigabitTcp => None,
        Technology::InicIdeal => Some((FpgaDevice::virtex_next_gen(), InicMode::Combined)),
        Technology::InicPrototype => Some((FpgaDevice::xc4085xla(), InicMode::Combined)),
        Technology::InicProtocol => {
            Some((FpgaDevice::virtex_next_gen(), InicMode::ProtocolProcessor))
        }
    }
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

/// Run one collective through the engine with an explicit algorithm. A
/// hung run returns its structured [`HangReport`].
///
/// # Panics
/// Panics if the (op, algorithm, p, elems) cell is unsupported, or if
/// the offload plan exceeds the device's CLB budget (pre-check with
/// [`plan_collective_offload`] to get the structured error instead).
pub(crate) fn collective(
    spec: ClusterSpec,
    op: CollectiveOp,
    algo: Algorithm,
    elems: usize,
) -> Result<CollRunResult, Box<HangReport>> {
    assert!(
        acc_coll::supports(op, algo, spec.p, elems),
        "unsupported collective cell: {op} via {algo} at p={}, elems={elems}",
        spec.p
    );
    let schedules = acc_coll::plan::build_all(op, algo, spec.p, elems);
    let inputs: Vec<Rc<[f64]>> = (0..spec.p)
        .map(|rank| collective_input(rank, elems))
        .collect();
    run_schedules(
        &spec,
        &schedules,
        &inputs,
        &Workload::Collective { op, algo, elems },
        |results| {
            let expect = acc_coll::oracle(op, spec.p, &inputs);
            for (rank, r) in results.iter().enumerate() {
                assert_eq!(r, &expect[rank], "rank {rank} {op}/{algo} output mismatch");
            }
        },
    )
}

/// Run the halo-exchange workload: `iters` stencil sweeps over a
/// 1-D strip decomposition, each sweep a neighbour halo exchange plus a
/// local update, closed by a residual allreduce (allreduce-heavy by
/// construction). A hung run returns its structured [`HangReport`].
///
/// # Panics
/// Panics if `spec.p` is not a power of two or `elems < 2`.
pub(crate) fn halo(
    spec: ClusterSpec,
    elems: usize,
    iters: usize,
) -> Result<CollRunResult, Box<HangReport>> {
    let schedules: Vec<Schedule> = (0..spec.p)
        .map(|rank| acc_coll::plan::halo(rank, spec.p, elems, iters))
        .collect();
    let inputs: Vec<Rc<[f64]>> = (0..spec.p)
        .map(|rank| collective_input(rank, elems))
        .collect();
    run_schedules(
        &spec,
        &schedules,
        &inputs,
        &Workload::Halo { elems, iters },
        |results| {
            let expect = acc_coll::plan::run_lockstep(&schedules, &inputs);
            for (rank, r) in results.iter().enumerate() {
                assert_eq!(r, &expect[rank], "rank {rank} halo output mismatch");
            }
        },
    )
}

/// Shared engine runner: wire one [`CollDriver`] per rank over the
/// given schedules, run under the deadline hierarchy, aggregate
/// timings, and verify through `check` (which asserts on mismatch).
fn run_schedules(
    spec: &ClusterSpec,
    schedules: &[Schedule],
    inputs: &[Rc<[f64]>],
    workload: &Workload,
    check: impl FnOnce(&[Vec<f64>]),
) -> Result<CollRunResult, Box<HangReport>> {
    assert!(spec.p >= 1);
    let offload = plan_collective_offload(spec.technology, schedules)
        .unwrap_or_else(|e| panic!("collective offload rejected: {e}"));
    // When the plan can kill a card under a rank-local policy, the
    // survivors keep their datapaths while rerouting the dead rank's
    // legs over TCP: re-validate each healthy rank's shrunken offload
    // against the CLB budget before wiring anything, so an over-budget
    // degraded bitstream is a structured pre-flight failure, not a
    // sim-time surprise.
    if let Some((device, mode)) = inic_device_mode(spec.technology) {
        if let Some(plan) = &spec.fault_plan {
            let card_dead: std::collections::BTreeSet<usize> = plan
                .card_failures()
                .iter()
                .map(|&(node, _)| node as usize)
                .collect();
            // Ranks a switch failure will strand degrade exactly like
            // card deaths (the wiring kills their cards at that
            // instant), so the pre-flight prices them the same way.
            let home = spec.fabric.build(spec.p).home;
            let dead = acc_coll::recovery::with_partitioned(
                &card_dead,
                plan.switch_failures().iter().flat_map(|&(s, _)| {
                    let home = &home;
                    (0..spec.p).filter(move |&r| home[r] == s as usize)
                }),
            );
            if !dead.is_empty() {
                for (rank, s) in schedules.iter().enumerate() {
                    if dead.contains(&rank) {
                        continue;
                    }
                    acc_coll::recovery::degraded_offload(s, spec.p, &dead, 0, mode, &device)
                        .unwrap_or_else(|e| {
                            panic!("degraded collective offload rejected for rank {rank}: {e}")
                        });
                }
            }
        }
    }
    // Debug builds statically prove the schedule set before wiring the
    // engine: leg pairing / deadlock-freedom always, and reduce
    // conservation for collective workloads (halo stencils have no
    // single-collective oracle). Release builds skip the pass — the
    // same proofs run offline via `acc-verify --schedules`.
    #[cfg(debug_assertions)]
    {
        if let Err(vs) = acc_coll::verify::verify_schedules(schedules) {
            for v in &vs {
                eprintln!("{v}");
            }
            panic!(
                "static schedule verification failed: {} violation(s)",
                vs.len()
            );
        }
        if let &Workload::Collective { op, elems, .. } = workload {
            if let Err(vs) = acc_coll::verify::verify_conservation(op, elems, schedules) {
                for v in &vs {
                    eprintln!("{v}");
                }
                panic!(
                    "static conservation verification failed: {} violation(s)",
                    vs.len()
                );
            }
        }
    }
    let kernels = HostKernels::athlon_1ghz();
    let mut w = wire(spec, |rank, attachment, fault_ctl| {
        CollDriver::new(
            rank,
            spec.p,
            schedules[rank].clone(),
            Rc::clone(&inputs[rank]),
            attachment,
            kernels.clone(),
            offload.as_ref().map(|plans| plans[rank].clone()),
        )
        .with_fault_ctl(fault_ctl)
    });
    let hierarchy = DeadlineHierarchy::for_run(spec, workload);
    w.run_to_completion::<CollDriver>(&hierarchy)?;
    let mut comm = SimDuration::ZERO;
    let mut compute = SimDuration::ZERO;
    for drv in w.ranks::<CollDriver>() {
        comm = comm.max(drv.timings.comm);
        compute = compute.max(drv.timings.compute);
    }
    // Only the oracle reads the outputs; copy them out only for it.
    let verified = if spec.verify {
        let results: Vec<Vec<f64>> = w.ranks::<CollDriver>().map(CollDriver::result).collect();
        check(&results);
        true
    } else {
        false
    };
    let summary = w.summarize::<CollDriver>(spec);
    Ok(CollRunResult {
        total: summary.total,
        comm,
        compute,
        verified,
        faults: summary.faults,
        audit: summary.audit,
        rejected_frames: summary.rejected_frames,
    })
}
