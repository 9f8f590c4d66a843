//! # rpi-benchmark — the repository's committed benchmark
//!
//! End-to-end numbers come from driving the real `rpi-queryd` binary as
//! a subprocess over loopback TCP ([`run`]); per-layer numbers come
//! from a separate traced run that replays the same generated requests
//! in-process with a span around each call into a layer ([`layers`]).
//! `BENCHMARK.json` at the repository root names every workload and
//! metric ([`spec`]); [`compare`] judges two result sets against the
//! bounds fixed there. See `README.md` for the glossary.

#![warn(missing_docs)]

pub mod alloc;
pub mod calibrate;
pub mod client;
pub mod compare;
pub mod daemon;
pub mod fixture;
pub mod json;
pub mod layers;
pub mod rng;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
