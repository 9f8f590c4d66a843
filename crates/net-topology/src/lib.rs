//! # net-topology — annotated AS graphs and a synthetic Internet
//!
//! The paper's algorithms run over an *annotated AS graph* (§2.1): ASes plus
//! provider-to-customer and peer-to-peer edges. This crate provides:
//!
//! * [`AsGraph`] — the graph itself, with symmetric edge storage, validity
//!   checking (provider-cycle freedom), and prefix ownership records.
//! * [`Relations`] — the relationship-oracle trait [`AsGraph`] implements,
//!   and [`paths`] — the walks written once over it: the downhill DFS
//!   behind customer paths and customer cones (Fig. 4 Phase 2) and the
//!   valley-free walk behind path classification (§2.2.2).
//! * [`tier`] — hierarchy classification in the spirit of Subramanian et
//!   al. \[8\], used to label ASes Tier-1/2/3 as the paper does.
//! * [`gen`] — a seeded hierarchical Internet generator that substitutes
//!   for the real 2002 topology: tier-1 clique, regional
//!   transit tiers, multihomed stubs, and provider-allocated (PA) vs
//!   provider-independent (PI) address space.
//! * [`metrics`] — degree/edge statistics used by Table 1 and the README.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod graph;
pub mod metrics;
pub mod paths;
pub mod tier;

pub use gen::{InternetConfig, InternetSize};
pub use graph::{AsGraph, GraphError, NodeInfo, PrefixRecord, Region};
pub use paths::{classify_path, customer_path, CustomerCone, PathClass, Relations};
pub use tier::TierMap;
