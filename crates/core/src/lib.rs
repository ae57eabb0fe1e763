//! # acc-core — the Adaptable Computing Cluster
//!
//! The paper's primary contribution, rebuilt as a library: Beowulf
//! cluster scenarios where every node's network interface is either a
//! commodity NIC (Fast Ethernet or Gigabit Ethernet over the modelled
//! TCP stack) or an **INIC** — reconfigurable computing inserted in the
//! network datapath (ideal Section-4 card or ACEII prototype).
//!
//! * [`runner`] — the one way to run a cluster: a [`ClusterSpec`] and a
//!   [`Workload`] make a [`RunRequest`], and [`RunRequest::execute`]
//!   returns a [`RunOutcome`].
//! * [`cluster`] — the P-node cluster of a chosen
//!   [`cluster::Technology`] and the workload bodies that run the
//!   evaluation applications on it end-to-end (real data, checked
//!   against serial oracles).
//! * [`drivers`] — the per-node application drivers: the FFTW-template
//!   2D FFT (Section 3.1) and the distributed integer sort
//!   (Section 3.2), each with a commodity-NIC and an INIC
//!   implementation.
//! * [`model`] — the closed-form performance models of Section 4
//!   (Eqs. 3–17), used for the INIC curves of Figs. 4 and 5 and
//!   cross-checked against the simulator in tests.
//! * [`report`] — speedup tables and gnuplot-style series shared by the
//!   figure regenerators in `acc-bench`.
//! * [`audit`] — the online invariant Auditor attached to faulted runs:
//!   conservation checks over the ports' and cards' counters, failing
//!   at the first violation with a trace-tail dump.

#![forbid(unsafe_code)]

pub mod audit;
pub mod cluster;
pub mod deadline;
pub mod drivers;
pub mod liveness;
pub mod model;
pub mod report;
pub mod runner;

pub use audit::{AuditConfig, AuditCounts, Auditor};
pub use cluster::{ClusterSpec, CollRunResult, FftRunResult, SortRunResult, Technology};
pub use deadline::{DeadlineHierarchy, PhaseBudget};
pub use drivers::{DriverProgress, RecoveryPolicy};
pub use liveness::{HangCause, HangReport};
pub use report::FaultDiagnostics;
pub use runner::{RunOutcome, RunRequest, Workload};
