//! The §8 evaluation harness: one function per table/figure.
//!
//! Each generator returns structured rows, so the same code backs the
//! `figures` binary (human-readable reproduction of the paper's plots)
//! and the integration tests (assertions that the *shape* of every result
//! matches the paper — who wins, by what factor, where the knees fall).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod filter_flood;
pub mod render;
pub mod tcb;

pub use figures::*;
