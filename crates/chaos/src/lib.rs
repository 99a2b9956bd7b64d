//! Deterministic stream fault injection and metamorphic CE oracles.
//!
//! The paper's recognition pipeline is evaluated on a cleaned dataset
//! (§5: "when decoded and cleaned from corrupt messages"), but deployed
//! AIS feeds are noisy, delayed, duplicated, and out of order. This crate
//! makes that hostility *reproducible*: a [`ChaosPlan`] is a seed plus a
//! list of perturbation ops, and applying the same plan to the same
//! sentence stream always yields the same perturbed stream — so any
//! failure it provokes can be replayed from a JSON file.
//!
//! On top of the perturbations sit metamorphic oracles over recognized
//! complex events (the [`oracle`] module): known input transformations
//! with known output relations —
//!
//! * **duplicate-idempotence**: re-sent sentences change nothing;
//! * **bounded-reorder equivalence**: arrival permutations within the
//!   admission window are byte-identical;
//! * **gap-monotonicity**: dropping vessels' positions never *creates*
//!   CE evidence — surviving vessels' alerts are preserved exactly and
//!   every durative CE interval stays inside a baseline interval
//!   ([`maritime_rtec::IntervalList::covers`]);
//! * **cross-engine agreement**: serial, banded, incremental, and traced
//!   engines must agree on perturbed streams, not just clean ones.
//!
//! When an oracle fails, [`shrink`] bisects the op list (delta debugging)
//! to a minimal reproducing plan. The `surveil chaos` subcommand drives
//! the whole loop; `TESTING.md` documents how to replay its artifacts.
//!
//! The [`socket`] module extends the same discipline to transport faults:
//! mid-sentence disconnects, half-open sources, and reconnect storms over
//! a multi-connection stream (`surveil serve`'s input shape), judged by
//! the same oracles via the core crate's sourced chaos runner.

#![warn(missing_docs)]

pub mod gen;
pub mod oracle;
pub mod perturb;
pub mod plan;
pub mod rng;
pub mod shrink;
pub mod socket;

pub use gen::{calm_sentences, demo_sentences, sourced_demo_sentences};
pub use oracle::{CeObservation, OracleViolation, QuerySnapshot};
pub use perturb::{Perturbation, PerturbStats, StreamLine};
pub use plan::{ChaosOp, ChaosPlan};
pub use rng::ChaosRng;
pub use shrink::shrink_plan;
pub use socket::{SocketOp, SocketPlan, SocketStats, SourcedLine};
