//! AIS (Automatic Identification System) substrate.
//!
//! The paper's input is "a stream of AIS tracking messages from vessels"
//! (§2): ITU-R M.1371 position reports of types 1, 2, 3 (class A) and
//! 18, 19 (class B), delivered as NMEA 0183 `!AIVDM` sentences. This crate
//! implements:
//!
//! * the six-bit ASCII payload armouring and bit-field extraction
//!   ([`sixbit`], [`nmea`]) with NMEA checksum validation;
//! * the position-report data model ([`types`], [`mmsi`]);
//! * the *Data Scanner* of Figure 1 ([`scanner`]): decode each sentence,
//!   keep only `⟨MMSI, Lon, Lat, τ⟩`, and discard corrupt messages;
//! * a deterministic synthetic fleet simulator ([`synthetic`]) standing in
//!   for the proprietary IMIS Hellas dataset (see DESIGN.md §1);
//! * stream replay helpers ([`replay`]).

#![warn(missing_docs)]

pub mod mmsi;
pub mod nmea;
pub mod replay;
pub mod scanner;
pub mod sixbit;
pub mod synthetic;
pub mod trace;
pub mod types;
pub mod voyage;

#[cfg(test)]
#[path = "../tests/support/bit_reader.rs"]
mod bit_reader;

pub use mmsi::Mmsi;
pub use scanner::{DataScanner, ScanStats};
pub use synthetic::{FleetConfig, FleetSimulator, VesselClass, VesselProfile};
pub use types::{AisMessageType, PositionReport, PositionTuple};
pub use voyage::{Defragged, Defragmenter, PendingFragments, StaticVoyageData, VoyageRegistry};
