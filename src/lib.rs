//! # ACC — A Reconfigurable Extension to the Network Interface of Beowulf Clusters
//!
//! Umbrella crate re-exporting the whole workspace, so examples and
//! downstream users can depend on one crate:
//!
//! * [`sim`] — deterministic discrete-event kernel,
//! * [`net`] — Ethernet frames, links, switches,
//! * [`proto`] — TCP model + the INIC application-specific protocol,
//! * [`host`] — commodity-PC models (memory hierarchy, buses,
//!   interrupts, kernel cost models),
//! * [`fpga`] — FPGA devices, bitstreams, dataflow operators, INIC
//!   cards,
//! * [`algos`] — FFT / transpose / sorting kernels and workloads,
//! * [`coll`] — the collective engine: pluggable algorithms, per-rank
//!   schedules, selection policy, CLB-budgeted offload plans,
//! * [`core`] — the Adaptable Computing Cluster: cluster specs and the
//!   one run entry point (`RunRequest::execute`), application drivers,
//!   Section-4 analytic models, reports.
//!
//! ## Quickstart
//!
//! ```
//! use acc::core::{ClusterSpec, RunRequest, Technology};
//!
//! // A 4-node Gigabit-Ethernet cluster vs the same cluster with ideal
//! // INICs, running a 64×64 distributed 2D FFT end to end.
//! let gige = RunRequest::fft(ClusterSpec::new(4, Technology::GigabitTcp), 64)
//!     .execute()
//!     .into_fft();
//! let inic = RunRequest::fft(ClusterSpec::new(4, Technology::InicIdeal), 64)
//!     .execute()
//!     .into_fft();
//! assert!(gige.verified && inic.verified);
//! assert!(inic.transpose < gige.transpose);
//! ```

pub use acc_algos as algos;
pub use acc_coll as coll;
pub use acc_core as core;
pub use acc_fpga as fpga;
pub use acc_host as host;
pub use acc_net as net;
pub use acc_proto as proto;
pub use acc_sim as sim;
