//! # internet-routing-policies
//!
//! A full reproduction of **Wang & Gao, "On Inferring and Characterizing
//! Internet Routing Policies" (IMC 2003)** as a Rust workspace: the paper's
//! inference algorithms *plus* every substrate they need, wired to a
//! synthetic Internet whose ground truth is known (`net_topology::gen`
//! generates it, `bgp_sim::policy` decides every AS's policies).
//!
//! This crate is the facade: it re-exports the workspace members so the
//! examples and integration tests can speak about the whole system, and so
//! downstream users can depend on one crate.
//!
//! ## The layers
//!
//! | crate | role |
//! |---|---|
//! | [`bgp_types`] | prefixes, AS paths, communities, the BGP decision process |
//! | [`bgp_wire`] | BGP-4 messages, MRT TABLE_DUMP_V2, Looking-Glass text tables |
//! | [`net_topology`] | annotated AS graph + hierarchical Internet generator |
//! | [`bgp_sim`] | ground-truth policies and the route-propagation engine |
//! | [`as_relationships`] | Gao's relationship inference + accuracy scoring |
//! | [`irr_rpsl`] | RPSL parsing and the synthetic IRR registry |
//! | [`rpi_core`] | the paper's analyses: import/export policy inference |
//! | [`rpi_query`] | the serving layer: concurrently-queryable observatory over many snapshots |
//! | [`rpi_store`] | the on-disk snapshot archive: checksummed full/delta segments, millisecond cold start |
//!
//! ## Thirty-second tour
//!
//! ```
//! use internet_routing_policies::prelude::*;
//!
//! // A ~60-AS Internet with ground-truth policies, observed from a
//! // collector and a handful of Looking-Glass servers:
//! let exp = Experiment::standard(InternetSize::Tiny, 7);
//!
//! // The paper's Fig. 4 algorithm at the largest Looking-Glass AS:
//! let provider = exp.spec.lg_ases[0];
//! let table = exp.lg_table(provider).unwrap();
//! let report = sa_prefixes(&table, &exp.inferred_graph);
//! println!(
//!     "{provider}: {} of {} customer prefixes are selectively announced",
//!     report.sa.len(),
//!     report.customer_prefixes
//! );
//! ```

#![forbid(unsafe_code)]

pub use as_relationships;
pub use bgp_sim;
pub use bgp_types;
pub use bgp_wire;
pub use irr_rpsl;
pub use net_topology;
pub use rpi_core;
pub use rpi_query;
pub use rpi_store;

/// Argument handling shared by the examples: every example accepts
/// `[--size tiny|small|paper|large] [--seed N]` and must reject bad input
/// with a clear message instead of panicking.
pub mod cli {
    use net_topology::InternetSize;

    /// Parses `--size` / `--seed` from `std::env::args`, falling back to
    /// the given defaults. Prints a diagnostic and exits with status 2 on
    /// unknown sizes, malformed seeds, or unknown arguments.
    pub fn size_seed_or_exit(default_size: InternetSize, default_seed: u64) -> (InternetSize, u64) {
        let mut size = default_size;
        let mut seed = default_seed;
        let program = std::env::args().next().unwrap_or_else(|| "example".into());
        let fail = |msg: String| -> ! {
            eprintln!("{program}: {msg}");
            eprintln!("usage: {program} [--size tiny|small|paper|large] [--seed N]");
            std::process::exit(2);
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--size" => {
                    let raw = args
                        .next()
                        .unwrap_or_else(|| fail("--size needs a value".into()));
                    size = raw.parse().unwrap_or_else(|e: String| fail(e));
                }
                "--seed" => {
                    let raw = args
                        .next()
                        .unwrap_or_else(|| fail("--seed needs a value".into()));
                    seed = raw.parse().unwrap_or_else(|_| {
                        fail(format!("--seed wants an unsigned integer, got '{raw}'"))
                    });
                }
                "--help" | "-h" => {
                    println!("usage: {program} [--size tiny|small|paper|large] [--seed N]");
                    std::process::exit(0);
                }
                other => fail(format!("unknown argument '{other}'")),
            }
        }
        (size, seed)
    }
}

/// The most common imports, bundled.
pub mod prelude {
    pub use as_relationships::{infer, AccuracyReport, InferenceParams};
    pub use bgp_sim::{ChurnConfig, GroundTruth, PolicyParams, SimOutput, Simulation, VantageSpec};
    pub use bgp_types::{AsPath, Asn, Community, Ipv4Prefix, Relationship, Route};
    pub use net_topology::{AsGraph, InternetConfig, InternetSize, NodeInfo};
    pub use rpi_core::export_policy::sa_prefixes;
    pub use rpi_core::import_policy::lg_typicality;
    pub use rpi_core::view::BestTable;
    pub use rpi_core::Experiment;
    pub use rpi_query::{
        Query, QueryEngine, QueryError, QueryRequest, Response, SaStatus, Scope, ServeConfig,
        Server, SnapshotDiff, SnapshotId,
    };
    pub use rpi_store::{Manifest, StoreError};
}
