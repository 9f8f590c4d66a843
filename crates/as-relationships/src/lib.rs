//! # as-relationships — inferring AS relationships from BGP paths
//!
//! The paper's §3 relies on Gao's relationship-inference algorithm \[12\]
//! ("On inferring autonomous system relationships in the Internet", ToN
//! 2001) to annotate the AS graph, and §4.3/Table 4 quantifies its error.
//! This crate implements:
//!
//! * [`gao`] — the degree-based inference: transit votes around the
//!   highest-degree AS of each path (Phase 2), sibling detection from
//!   bidirectional transit (Phase 3), and a peering phase driven by the
//!   "never observed in the interior of a path" signal plus a degree-ratio
//!   guard (Phase 4 / Algorithm 3 in spirit).
//! * [`accuracy`] — confusion matrices against ground truth, precision and
//!   recall per link class, and the per-AS verification percentages the
//!   paper reports in Table 4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod gao;

pub use accuracy::{per_as_agreement, AccuracyReport, LinkClass};
pub use gao::{infer, InferenceParams, InferredRelationships};
