//! `bench_e2e`: the wall-clock ledger for one request through the real
//! ccAI confidential datapath.
//!
//! The benchmark changes no program source. Untraced runs call the
//! program's public entry points and report what a user would see; a
//! separate traced run wraps the public seams between the layers and
//! reports where the time went. `README.md` has the command lines and
//! the reasoning behind the workloads and metrics.

pub mod compare;
pub mod epoch;
pub mod json;
pub mod replay;
pub mod run;
pub mod selfcheck;
pub mod sheet;
pub mod sut;
pub mod trace;
