//! # acc-net — Ethernet fabric models
//!
//! Byte-accurate models of the network hardware under both systems the
//! paper compares: commodity Fast/Gigabit Ethernet NICs and the INIC's
//! PMC Gigabit Ethernet port all attach to the same simulated fabric, so
//! protocol and datapath differences — not fabric differences — explain
//! the results, exactly as in the paper ("although they use the same
//! network technology").
//!
//! * [`frame`] — Ethernet frames with real wire overheads (preamble,
//!   header, FCS, inter-frame gap, minimum frame padding).
//! * [`port`] — a serializing egress port with a bounded drop-tail queue;
//!   shared by NICs and switch outputs.
//! * [`switch`] — a store-and-forward output-queued switch with a static
//!   MAC table and per-port buffer capacity.
//! * [`msg`] — [`NetMsg`], every event the fabric exchanges, and
//!   [`NetCarrier`], the carrier trait its components are generic over.
//! * [`presets`] — Fast Ethernet, Gigabit Ethernet and switch parameters
//!   matching the prototype cluster (Section 5).

#![forbid(unsafe_code)]

pub mod fabric;
pub mod frame;
pub mod impair;
pub mod msg;
pub mod port;
pub mod presets;
pub mod routing;
pub mod switch;

pub use fabric::{FabricSpec, Topology};
pub use frame::{EtherType, Frame, FrameError, FrameHeader, MacAddr, PayloadView};
pub use impair::{ImpairCounters, Impairment, Verdict};
pub use msg::{NetCarrier, NetMsg};
pub use port::{EgressPort, FrameArrival, PortTxDone};
pub use presets::{EthernetKind, LinkParams, SwitchParams};
pub use routing::{
    compute_schedule, walk_path, Attachment, Epoch, FabricSchedule, PartitionReport, TrunkOutage,
};
pub use switch::{RouteUpdate, Switch, SwitchKill};
