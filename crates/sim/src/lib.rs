//! # abe-sim — deterministic discrete-event simulation kernel
//!
//! The execution substrate underneath the ABE network model of
//! *Bakhshi, Endrullis, Fokkink, Pang — "Asynchronous Bounded Expected Delay
//! Networks" (PODC 2010)*. The paper's claims are about **expected** time and
//! message complexity, so the substrate must make probabilistic executions
//! measurable and — crucially — *reproducible*: every table in the evaluation
//! harness can be regenerated bit-for-bit from a master seed.
//!
//! The kernel is deliberately generic; nothing in this crate knows about
//! networks. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — validated virtual-time newtypes with a
//!   total order.
//! * [`EventQueue`] — a `(time, sequence)`-ordered pending set, implemented
//!   as an indexed two-tier calendar queue (near-future buckets + far-future
//!   heap, `O(1)` cancellation); ties fire in scheduling order, making runs
//!   deterministic. [`HeapQueue`] is the retained binary-heap baseline the
//!   calendar queue is differentially tested and benchmarked against.
//! * [`World`] / [`Simulation`] — the dispatch loop with event/time limits
//!   and cooperative stop requests.
//! * [`SplitMix64`] / [`Xoshiro256PlusPlus`] / [`SeedStream`] — in-crate PRNG
//!   implementations (interfacing with the `rand` traits) so bit streams do
//!   not depend on `rand`'s internal algorithm choices, plus hierarchical
//!   seed derivation for per-entity streams.
//!
//! ## Example
//!
//! ```
//! use abe_sim::{RunLimits, SimDuration, SimTime, Simulation, StepCtx, World};
//!
//! /// A ping-pong world: two logical parties alternate until 10 volleys.
//! #[derive(Debug, Default)]
//! struct PingPong {
//!     volleys: u32,
//! }
//!
//! impl World for PingPong {
//!     type Event = &'static str;
//!     fn handle(&mut self, ctx: &mut StepCtx<'_, &'static str>, ev: &'static str) {
//!         self.volleys += 1;
//!         if self.volleys < 10 {
//!             let next = if ev == "ping" { "pong" } else { "ping" };
//!             ctx.schedule_in(SimDuration::from_secs(0.1), next);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(PingPong::default());
//! sim.prime(SimTime::ZERO, "ping");
//! let report = sim.run(RunLimits::unbounded());
//! assert!(report.outcome.is_quiescent());
//! assert_eq!(sim.world().volleys, 10);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod queue;
mod rng;
mod time;
mod world;

pub use queue::{EventQueue, EventToken, HeapQueue, QueueStats};
pub use rng::{mix64, SeedStream, SplitMix64, Xoshiro256PlusPlus};
pub use time::{InvalidTimeError, SimDuration, SimTime};
pub use world::{RunLimits, RunOutcome, RunReport, Simulation, StepCtx, World};
