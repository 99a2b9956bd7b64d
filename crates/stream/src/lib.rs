//! Sliding-window stream infrastructure.
//!
//! §2 of the paper: "this online process necessitates the use of a sliding
//! window, which abstracts the time period of interest ... Typically, a
//! window looks for phenomena that occurred in a recent range ω ... This
//! window moves forward ... at a specific slide step every β units."
//!
//! This crate provides the time model ([`Timestamp`], [`Duration`]), window
//! specifications ([`WindowSpec`]), a per-item sliding buffer
//! ([`SlidingWindow`]), a batch replayer that turns a recorded stream into
//! per-slide batches ([`SlideBatches`]), arrival-rate rescaling used by
//! the stress test of Figure 7 ([`rate`]), a bounded-disorder
//! admission buffer for out-of-order feeds ([`AdmissionBuffer`]), and a
//! multi-feed line mux with per-source accounting and cross-source
//! duplicate suppression for live serving ([`SourceMux`]).

#![warn(missing_docs)]

pub mod admission;
pub mod rate;
pub mod slider;
pub mod source;
pub mod time;
pub mod window;

pub use admission::{AdmissionBuffer, AdmissionStats};
pub use source::{SourceId, SourceMux, SourceStats, SourceVerdict};
pub use slider::SlideBatches;
pub use time::{Duration, Timestamp};
pub use window::{SlidingWindow, WindowSpec, WindowSpecError};
