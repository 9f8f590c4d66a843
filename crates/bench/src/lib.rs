//! # rpi-bench — regenerating the paper's tables and figures
//!
//! One function per experiment (Tables 1–11, Figures 2, 6, 7, 9 — Figures
//! 1, 3, 5, 8 are explanatory diagrams reproduced as doc comments and
//! example scenarios). Each function consumes a [`PaperWorld`] and returns
//! both structured data and a printable block, which the `paper_tables`
//! binary prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod world;

pub use world::PaperWorld;
