//! # abe-scenario — experiments as data
//!
//! Every experiment in this workspace is the composition of five
//! orthogonal builder APIs — topology, delay model, fault plan, adversary
//! plan, and protocol — times a sweep grid. This crate turns that
//! composition into **data**:
//!
//! * a [`Scenario`] names a complete experiment: the fixed configuration,
//!   the grid axes, the seed axis, and the *expected outcome class*;
//! * the `.abes` text form ([`parse()`](parse())/[`Scenario::print`]) is a compact,
//!   deterministic, line-oriented encoding of a [`Scenario`] — the corpus
//!   under `scenarios/` at the repository root is written in it;
//! * the compiler ([`compile()`](compile())) lowers a scenario onto the existing
//!   [`abe_sweep`] engine **unchanged**: the lowered spec derives per-cell
//!   seeds from grid coordinates, so a scenario's metric JSON is
//!   byte-identical at any worker count — the `abe-bench` experiments
//!   e1, e14, e17, e19 and e21 are their `scenarios/*.abes` files, run
//!   through this compiler;
//! * the campaign runner ([`campaign`]) executes a corpus directory,
//!   diffs each scenario's deterministic `"sweep"` block against a
//!   committed golden, and checks per-cell **outcome oracles** (exactly
//!   one leader, zero adversary-auditor violations, declared outcome
//!   class) — reporting every regression with its grid coordinates;
//! * the fuzzer ([`fuzz`]) generates seeded random scenarios whose
//!   oracles are invariants the workspace already proves, so new
//!   scenarios are free.
//!
//! ## Example
//!
//! ```
//! use abe_scenario::{compile, parse};
//!
//! let text = "\
//! scenario doc_example
//! protocol abe-calibrated a=1
//! delay exp mean=1
//! topology uni-ring
//! axis n 4 8
//! seeds 2
//! record election
//! expect completed
//! ";
//! let scenario = parse(text).unwrap();
//! assert_eq!(scenario.print(), text);
//! let compiled = compile(&scenario).unwrap();
//! let outcome = compiled.run(1).unwrap();
//! assert_eq!(outcome.cells.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod campaign;
pub mod compile;
pub mod fuzz;
pub mod model;
pub mod parse;

pub use campaign::{run_campaign, CampaignOptions, CampaignReport};
pub use compile::{compile, CompiledScenario};
pub use model::{
    AdversarySpec, AxisSpec, AxisValues, Bind, DelaySpec, ElectionProtocol, Expectation, FaultSpec,
    FilterSpec, Scenario, ScenarioError, TopologySpec, Workload,
};
pub use parse::parse;
