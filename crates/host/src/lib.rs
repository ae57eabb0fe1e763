//! # acc-host — commodity PC node models
//!
//! The paper's whole argument rests on specific weaknesses of the 2001
//! commodity PC: a slow shared PCI bus, a shallow memory hierarchy,
//! DMA engines that are only efficient for large transfers, and
//! interrupt costs high enough that Gigabit-rate per-packet interrupts
//! are impossible. This crate holds the node's cost models, calibrated
//! to the prototype's 1 GHz Athlon / 32-bit 33 MHz PCI testbed
//! (Section 5). It has no simulated component: PCI and DMA are priced
//! where the bytes move, by `acc_proto`'s `HostPathCosts` on the TCP
//! path and by `acc_fpga`'s `CardPorts` timelines on the card.
//!
//! * [`memory`] — a three-level memory hierarchy whose effective
//!   bandwidth depends on working-set size; produces the cache-fit
//!   "knees" the paper notes at 2–3 and 6–8 processors.
//! * [`kernels`] — calibrated time models for the computational kernels
//!   (per-row 1D FFT, local transpose, bucket sort, count sort) with the
//!   constants anchored to the paper's own measurements.
//! * [`interrupts`] — per-interrupt CPU costs and the interrupt
//!   moderation (coalescing) state machine whose interaction with TCP
//!   slow start degrades short transfers (Section 4.1).
//! * [`stall`] — node stall windows during which the CPU defers all
//!   event servicing (the host half of `NodeStall` fault injection).

#![forbid(unsafe_code)]

pub mod interrupts;
pub mod kernels;
pub mod memory;
pub mod stall;

pub use interrupts::{InterruptCosts, InterruptModerator, ModerationPolicy};
pub use kernels::HostKernels;
pub use memory::{MemoryHierarchy, MemoryLevel};
pub use stall::StallSchedule;
