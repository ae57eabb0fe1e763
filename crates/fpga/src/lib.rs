//! # acc-fpga — the reconfigurable-computing substrate
//!
//! Models the hardware the paper adds to the cluster: FPGA devices with
//! finite logic resources, bitstreams composed of streaming dataflow
//! operators, and the two INIC card generations the paper evaluates:
//!
//! * the **ideal INIC** of Section 4 — separate, pipelined datapaths to
//!   host memory (80 MiB/s) and to the network (90 MiB/s), exactly the
//!   rates in Eqs. 6–9;
//! * the **ACEII prototype** of Sections 5–6 — "a single 132 MB/s bus
//!   used to access both the Gigabit Ethernet and host memory" and a
//!   Xilinx 4085XLA too small for the full receive-side bucket sort,
//!   forcing the two-phase sort of Fig. 7.
//!
//! Resource limits are *enforced*, not narrated: configuring a bitstream
//! whose CLB total exceeds the device fails, so the prototype physically
//! cannot load `BucketSort{128}` and the driver must fall back to the
//! 16-bucket + host-phase-2 pipeline, exactly as the authors did.
//!
//! The datapath is **functional** as well as timed: operators transform
//! the real bytes (via the `acc-algos` kernels) so end-to-end results are
//! checked against host-side oracles in the integration tests.

#![forbid(unsafe_code)]

pub mod card;
mod datapath;
pub mod device;
pub mod msg;
pub mod ops;
pub mod timeline;

pub use card::{
    CardPorts, InicCard, InicConfigure, InicConfigured, InicExpect, InicGatherComplete, InicKill,
    InicReconfigure, InicRecover, InicScatter, InicScatterDone, CREDIT_WINDOW,
};
pub use datapath::{GatherKind, ScatterKind};
pub use device::{Bitstream, ConfigError, FpgaDevice};
pub use msg::{FpgaCarrier, FpgaMsg};
pub use ops::{OperatorKind, OperatorSpec};
pub use timeline::EngineTimeline;

/// The three operating modes of Section 2. The evaluated applications
/// both use [`InicMode::Combined`]; the enum exists so scenario code and
/// docs can name the mode they exercise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InicMode {
    /// FPGAs used purely for application computing; a separate path to
    /// host memory carries ordinary network traffic.
    ComputeAccelerator,
    /// FPGAs run only the network protocol (no application operators).
    ProtocolProcessor,
    /// Application operators fused with the protocol engine in the
    /// datapath — "the most interesting of the three modes".
    Combined,
}
