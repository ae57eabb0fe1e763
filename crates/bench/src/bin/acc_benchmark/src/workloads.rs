//! The four workloads: named lists of simulation cells.
//!
//! A cell is one `RunRequest` shape (application, technology, node
//! count, fabric, fault plan). Its label is the name used for it in the
//! results file and the trace (`core.cell.<label>`).

use acc_chaos::{FaultEvent, FaultPlan, LinkId};
use acc_coll::{Algorithm, CollectiveOp};
use acc_core::cluster::{ClusterSpec, Technology};
use acc_core::{RecoveryPolicy, RunRequest};
use acc_net::FabricSpec;
use acc_sim::{SimDuration, SimTime};

/// Names accepted by `--workload`, in the order a full run executes
/// them.
pub const NAMES: [&str; 4] = ["paper", "coll_latency", "coll_bandwidth", "faults"];

/// The application one cell runs.
#[derive(Clone, Copy, Debug)]
pub enum App {
    Sort {
        keys: u64,
    },
    Fft {
        rows: usize,
    },
    Coll {
        op: CollectiveOp,
        algo: Algorithm,
        elems: usize,
    },
}

/// What goes wrong during a cell.
#[derive(Clone, Copy, Debug)]
pub enum Fault {
    None,
    /// Independent loss of 1% of frames on every link; the loss
    /// sequence is drawn from the plan seed. The cell runs under
    /// [`LOSS_DRAWS`] sequences (see [`Cell::draws`]).
    LossOnePct,
    /// Node `node`'s card dies at `at_ms`.
    CardKill {
        node: u32,
        at_ms: u64,
    },
    /// Switch `switch` dies at `at_ms`.
    SwitchKill {
        switch: u32,
        at_ms: u64,
    },
    /// The topology's first trunk is down during `[from_ms, until_ms)`.
    FirstTrunkDown {
        from_ms: u64,
        until_ms: u64,
    },
}

/// One simulated run of a workload pass.
#[derive(Clone, Debug)]
pub struct Cell {
    pub label: String,
    pub app: App,
    pub tech: Technology,
    pub p: usize,
    pub fabric: FabricSpec,
    pub fault: Fault,
}

/// Loss sequences a lossy cell runs under per pass. One sequence alone
/// is a lottery over TCP retransmission timeouts: at 1% loss the
/// gigabit sort of 2^18 keys ends anywhere from 0.2 s to 19 s of
/// simulated time depending on which segments are lost. The median of
/// 15 draws is the cell's typical time and moves little from seed to
/// seed.
pub const LOSS_DRAWS: u32 = 15;

/// A named list of cells.
pub struct Workload {
    pub name: &'static str,
    pub cells: Vec<Cell>,
}

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

/// SplitMix64 finaliser: spreads one seed into unrelated streams.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Cell {
    fn new(label: String, app: App, tech: Technology, p: usize) -> Cell {
        Cell {
            label,
            app,
            tech,
            p,
            fabric: FabricSpec::SingleSwitch,
            fault: Fault::None,
        }
    }

    fn on(mut self, fabric: FabricSpec) -> Cell {
        self.fabric = fabric;
        self
    }

    fn with(mut self, fault: Fault) -> Cell {
        self.fault = fault;
        self
    }

    /// Whether the cell's ranks talk through the host TCP stack (as
    /// opposed to an INIC card).
    pub fn uses_tcp(&self) -> bool {
        !self.tech.is_inic()
    }

    /// Runs of this cell per pass, each under its own fault plan: one,
    /// except for cells whose plan draws random losses.
    pub fn draws(&self) -> u32 {
        match self.fault {
            Fault::LossOnePct => LOSS_DRAWS,
            _ => 1,
        }
    }

    /// The fault plan of draw `draw` of this cell for workload seed
    /// `seed`, if the cell has one. Plan seeds come from the workload
    /// seed, the label and the draw, so no two runs share a loss
    /// sequence.
    pub fn fault_plan(&self, seed: u64, draw: u32) -> Option<FaultPlan> {
        let plan_seed = mix(mix(seed ^ fnv1a(self.label.as_bytes())) ^ u64::from(draw));
        let plan = FaultPlan::new(plan_seed);
        let event = match self.fault {
            Fault::None => return None,
            Fault::LossOnePct => FaultEvent::FrameLoss {
                link: LinkId::All,
                prob: 0.01,
            },
            Fault::CardKill { node, at_ms } => FaultEvent::CardFailure {
                node,
                at: ms(at_ms),
            },
            Fault::SwitchKill { switch, at_ms } => FaultEvent::SwitchFailure {
                switch,
                at: ms(at_ms),
            },
            Fault::FirstTrunkDown { from_ms, until_ms } => {
                let (a, b) = self.fabric.build(self.p).trunks[0];
                FaultEvent::LinkDown {
                    a: u32::try_from(a).expect("switch id fits u32"),
                    b: u32::try_from(b).expect("switch id fits u32"),
                    from: ms(from_ms),
                    until: ms(until_ms),
                }
            }
        };
        Some(plan.with(event))
    }

    /// The run request for draw `draw` of this cell. `verify` turns on
    /// the serial oracles (the Auditor is armed on every faulted run
    /// regardless).
    pub fn request(&self, seed: u64, draw: u32, verify: bool) -> RunRequest {
        let mut spec = ClusterSpec::new(self.p, self.tech)
            .with_fabric(self.fabric)
            .with_recovery_policy(RecoveryPolicy::Checkpointed);
        spec.seed = seed;
        spec.verify = verify;
        if let Some(plan) = self.fault_plan(seed, draw) {
            spec = spec.with_fault_plan(plan);
        }
        match self.app {
            App::Sort { keys } => RunRequest::sort(spec, keys),
            App::Fft { rows } => RunRequest::fft(spec, rows),
            App::Coll { op, algo, elems } => RunRequest::collective(spec, op, algo, elems),
        }
    }
}

const PAPER_TECHS: [Technology; 4] = [
    Technology::GigabitTcp,
    Technology::InicIdeal,
    Technology::InicPrototype,
    Technology::InicProtocol,
];

/// The workload called `name`, or `None` for an unknown name.
pub fn workload(name: &str) -> Option<Workload> {
    let cells = match name {
        "paper" => {
            let sorts = PAPER_TECHS.map(|t| {
                Cell::new(
                    format!("sort_2e22_{}_p8", t.label()),
                    App::Sort { keys: 1 << 22 },
                    t,
                    8,
                )
            });
            let ffts = PAPER_TECHS.map(|t| {
                Cell::new(
                    format!("fft_512_{}_p8", t.label()),
                    App::Fft { rows: 512 },
                    t,
                    8,
                )
            });
            sorts.into_iter().chain(ffts).collect()
        }
        "coll_latency" => collectives(
            &[
                (
                    "allreduce_rd",
                    CollectiveOp::AllReduce,
                    Algorithm::RecursiveDoubling,
                ),
                (
                    "allgather_rd",
                    CollectiveOp::AllGather,
                    Algorithm::RecursiveDoubling,
                ),
                (
                    "barrier_dissem",
                    CollectiveOp::Barrier,
                    Algorithm::Dissemination,
                ),
                (
                    "bcast_binomial",
                    CollectiveOp::Broadcast,
                    Algorithm::BinomialTree,
                ),
                ("alltoall_bruck", CollectiveOp::AllToAll, Algorithm::Bruck),
            ],
            &[256; 5],
            &[Technology::GigabitTcp, Technology::InicIdeal],
            32,
        ),
        "coll_bandwidth" => collectives(
            &[
                ("allreduce_ring", CollectiveOp::AllReduce, Algorithm::Ring),
                (
                    "reducescatter_rh",
                    CollectiveOp::ReduceScatter,
                    Algorithm::RecursiveHalving,
                ),
                ("allgather_ring", CollectiveOp::AllGather, Algorithm::Ring),
            ],
            &[1 << 17, 1 << 17, 1 << 13],
            &[
                Technology::GigabitTcp,
                Technology::InicIdeal,
                Technology::InicPrototype,
            ],
            16,
        ),
        "faults" => {
            let ideal = Technology::InicIdeal;
            let ring = |elems| App::Coll {
                op: CollectiveOp::AllReduce,
                algo: Algorithm::Ring,
                elems,
            };
            let mut cells = vec![
                // Clean, but every ring step crosses up to five switches.
                Cell::new(
                    "allreduce_ring_2e14_fattree8_p64".into(),
                    ring(1 << 14),
                    ideal,
                    64,
                )
                .on(FabricSpec::FatTree { k: 8 }),
                // Switch 16 is the fat-tree's first core switch.
                Cell::new(
                    "allreduce_ring_6144_fattree4_corekill_p16".into(),
                    ring(6144),
                    ideal,
                    16,
                )
                .on(FabricSpec::FatTree { k: 4 })
                .with(Fault::SwitchKill {
                    switch: 16,
                    at_ms: 61,
                }),
                Cell::new(
                    "alltoall_bruck_2e12_torus222_linkdown_p8".into(),
                    App::Coll {
                        op: CollectiveOp::AllToAll,
                        algo: Algorithm::Bruck,
                        elems: 1 << 12,
                    },
                    ideal,
                    8,
                )
                .on(FabricSpec::Torus3D { dims: [2, 2, 2] })
                .with(Fault::FirstTrunkDown {
                    from_ms: 61,
                    until_ms: 64,
                }),
            ];
            for t in [Technology::GigabitTcp, ideal] {
                cells.push(
                    Cell::new(
                        format!("sort_2e18_loss1pct_{}_p8", t.label()),
                        App::Sort { keys: 1 << 18 },
                        t,
                        8,
                    )
                    .with(Fault::LossOnePct),
                );
            }
            cells.push(
                Cell::new(
                    "fft_256_cardkill_inic-ideal_p8".into(),
                    App::Fft { rows: 256 },
                    ideal,
                    8,
                )
                .with(Fault::CardKill { node: 3, at_ms: 65 }),
            );
            cells
        }
        _ => return None,
    };
    let name = NAMES.into_iter().find(|&n| n == name)?;
    Some(Workload { name, cells })
}

/// Every (collective, size) pair on every technology, at `p` ranks.
fn collectives(
    ops: &[(&str, CollectiveOp, Algorithm)],
    sizes: &[usize],
    techs: &[Technology],
    p: usize,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (&(name, op, algo), &elems) in ops.iter().zip(sizes) {
        let size = if elems.is_power_of_two() && elems > 256 {
            format!("2e{}", elems.ilog2())
        } else {
            elems.to_string()
        };
        for &t in techs {
            cells.push(Cell::new(
                format!("{name}_{size}_{}_p{p}", t.label()),
                App::Coll { op, algo, elems },
                t,
                p,
            ));
        }
    }
    cells
}
