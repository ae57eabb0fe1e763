//! # acc-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the ACC (Adaptable Computing Cluster)
//! reproduction. Every hardware artifact the paper measures — Ethernet
//! links, switches, PCI buses, DMA engines, interrupt controllers, FPGA
//! datapaths — is modelled as a [`Component`] exchanging timestamped events
//! through a single [`Simulation`] engine.
//!
//! Design goals:
//!
//! * **Determinism.** Simulated time is an integer number of picoseconds
//!   ([`SimTime`]); the event queue breaks ties by insertion sequence
//!   number, and all randomness flows through a seeded RNG. Running the
//!   same scenario twice produces bit-identical results, so the figures in
//!   EXPERIMENTS.md regenerate exactly.
//! * **Isolation.** Components never hold references to each other; all
//!   interaction is via events addressed by [`ComponentId`]. This mirrors
//!   how the real hardware blocks interact (bus transactions, wires,
//!   interrupts) and keeps the borrow checker trivially satisfied.
//! * **Observability.** A [`stats::StatsRegistry`] collects counters
//!   and gauges; a bounded [`trace::TraceBuffer`]
//!   records recent events for debugging failed scenarios.
//!
//! ## Quick example
//!
//! The engine is generic over its event carrier (see [`carrier`]): here
//! a one-message enum that a [`Carrier`] wraps when parked.
//!
//! ```
//! use acc_sim::{Carrier, Carry, Component, ComponentId, Ctx, SimDuration, Simulation};
//!
//! enum Msg { Ball, Parked(Box<Msg>) }
//!
//! impl Carry<Msg> for Msg {
//!     fn carry(m: Msg) -> Msg { m }
//! }
//! impl Carrier for Msg {
//!     fn defer(self) -> Msg { Msg::Parked(Box::new(self)) }
//!     fn undefer(self) -> Result<Msg, Msg> {
//!         match self { Msg::Parked(m) => Ok(*m), m => Err(m) }
//!     }
//! }
//!
//! struct Ping { peer: ComponentId, left: u32 }
//!
//! impl Component<Msg> for Ping {
//!     fn handle(&mut self, ev: Msg, ctx: &mut Ctx<'_, Msg>) {
//!         match ev {
//!             Msg::Ball if self.left > 0 => {
//!                 self.left -= 1;
//!                 ctx.send_in(SimDuration::from_nanos(500), self.peer, Msg::Ball);
//!             }
//!             Msg::Ball => {}
//!             Msg::Parked(_) => acc_sim::unknown_event(self.name()),
//!         }
//!     }
//!     fn name(&self) -> &str { "ping" }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let a = sim.reserve_id();
//! let b = sim.reserve_id();
//! sim.register(a, Ping { peer: b, left: 3 });
//! sim.register(b, Ping { peer: a, left: 3 });
//! sim.schedule_at(acc_sim::SimTime::ZERO, a, Msg::Ball);
//! sim.run();
//! assert_eq!(sim.now().as_nanos(), 3000);
//! ```

#![forbid(unsafe_code)]

pub mod carrier;
pub mod component;
pub mod engine;
pub mod event;
pub mod legacy;
pub mod liveness;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use carrier::{unknown_event, Carrier, Carry};
pub use component::{Component, ComponentId, Ctx};
pub use engine::Simulation;
pub use event::{EventQueue, HeapQueue, TimingWheel};
pub use liveness::{ComponentWait, HangKind, LivenessReport, Watchdog};
pub use rng::SimRng;
pub use stats::{CounterHandle, StatsRegistry};
pub use time::{Bandwidth, DataSize, SimDuration, SimTime};
