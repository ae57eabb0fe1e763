//! # acc-host — commodity PC node models
//!
//! The paper's whole argument rests on specific weaknesses of the 2001
//! commodity PC: a slow shared PCI bus, a shallow memory hierarchy,
//! DMA engines that are only efficient for large transfers, and
//! interrupt costs high enough that Gigabit-rate per-packet interrupts
//! are impossible. This crate models each of those, calibrated to the
//! prototype's 1 GHz Athlon / 32-bit 33 MHz PCI testbed (Section 5).
//!
//! * [`memory`] — a three-level memory hierarchy whose effective
//!   bandwidth depends on working-set size; produces the cache-fit
//!   "knees" the paper notes at 2–3 and 6–8 processors.
//! * [`kernels`] — calibrated time models for the computational kernels
//!   (per-row 1D FFT, local transpose, bucket sort, count sort) with the
//!   constants anchored to the paper's own measurements.
//! * [`bus`] — a shared bus component with round-robin arbitration,
//!   used for both the system PCI bus (132 MB/s) and the ACEII card's
//!   single internal bus — the prototype's headline bottleneck.
//! * [`interrupts`] — per-interrupt CPU costs and the interrupt
//!   moderation (coalescing) state machine whose interaction with TCP
//!   slow start degrades short transfers (Section 4.1).
//! * [`msg`] — [`HostMsg`], the host models' events, and
//!   [`HostCarrier`], the carrier trait the bus is generic over.
//! * [`stall`] — node stall windows during which the CPU defers all
//!   event servicing (the host half of `NodeStall` fault injection).

#![forbid(unsafe_code)]

pub mod bus;
pub mod interrupts;
pub mod kernels;
pub mod memory;
pub mod msg;
pub mod stall;

pub use bus::{BusDone, BusParams, BusRequest, SharedBus};
pub use interrupts::{InterruptCosts, InterruptModerator, ModerationPolicy};
pub use kernels::HostKernels;
pub use memory::{MemoryHierarchy, MemoryLevel};
pub use msg::{HostCarrier, HostMsg};
pub use stall::StallSchedule;
