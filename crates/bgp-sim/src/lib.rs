//! # bgp-sim — policy-aware BGP route propagation
//!
//! The paper observes the Internet's routing system from the outside; we
//! rebuild the system itself so the same observations can be made on a
//! synthetic Internet whose ground truth is known (`net_topology::gen`):
//!
//! * [`policy`] — the ground-truth policy model: per-AS import policies
//!   (local-pref bands per neighbor class, atypical neighbors, prefix-based
//!   overrides — the knobs of §2.2.1), export policies (selective
//!   announcement to provider subsets, provider-scoped "do not announce
//!   upstream" community tags, prefix splitting, provider aggregation of
//!   PA space, partial export to peers — every cause studied in §5), and
//!   per-AS community tagging plans (the Appendix's Table 11).
//! * [`engine`] — a deterministic Gauss–Seidel path-vector engine that
//!   propagates each *announcement class* to a stable state under the full
//!   decision process, then extracts collector (RouteViews-style) and
//!   Looking-Glass views.
//! * [`routers`] — splits one AS's view across N border routers with iBGP,
//!   for the paper's Fig. 2(b) consistency study.
//! * [`churn`] — timed policy flips, link failures and conditional
//!   advertisement, producing the daily/hourly snapshot series of Figs 6–7.
//! * [`export`] — conversions of simulated views to MRT TABLE_DUMP_V2 and
//!   the `lg-table` text format, closing the loop with [`bgp_wire`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod churn;
pub mod delta_codec;
pub mod engine;
pub mod export;
pub mod policy;
pub mod routers;
pub mod stream;

pub use attack::{inject_attack, AttackKind, AttackScenario};
pub use churn::{output_delta, ChurnConfig, DeltaRoute, OutputDelta, SnapshotSeries, VantageDelta};
pub use engine::{
    CollectorRow, CollectorView, LgRoute, LgView, SimDiagnostics, SimOutput, Simulation,
    VantageSpec,
};
pub use policy::{
    AnnouncementClass, AsPolicy, CommunityPlan, ExportPolicy, GroundTruth, ImportPolicy,
    PolicyParams, Scope,
};
pub use routers::{split_into_routers, RouterView};
pub use stream::{StreamFrame, StreamStep, StreamWriter, STREAM_MAGIC};
