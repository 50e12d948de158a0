//! In-tree correctness tooling for the bgpbench workspace.
//!
//! The build environment has no crates.io access, so the external
//! analysis stack (cargo-fuzz, loom, miri) is unavailable. The
//! workspace's static rules need none of it: rustc and clippy enforce
//! them through `[workspace.lints]`, `clippy.toml` and lint attributes
//! at the crate roots (no panicking calls in the hot-path crates, no
//! host-clock reads outside `telemetry`, no std `HashMap` in `rib`, no
//! `unsafe` code; DESIGN.md section 9.1). This crate rebuilds the
//! dynamic subset the benchmark's claims rest on, in tree:
//!
//! * [`fuzz`] — a deterministic mutational fuzzer over the BGP wire
//!   format, seeded from the valid-message [`corpus`]: decode must
//!   never panic, decode→encode→decode must be a fixpoint, and
//!   failures shrink to a minimized hex reproducer.
//! * [`sync`] + [`interleave`] — a lock-order-cycle detector over the
//!   acquisition log the `parking_lot` shim records under its
//!   `check-sync` feature, and deterministic schedule exploration
//!   (exhaustive baseline plus a sleep-set DPOR explorer) for
//!   algebraic concurrency properties (loom-lite).
//! * [`vclock`] + [`races`] — a dynamic happens-before race detector:
//!   vector-clock replay of the unified synchronization event log the
//!   shims record under `check-sync`, reporting unordered write/write
//!   and read/write access pairs with both source-site labels.
//!
//! The `bgpbench-check` binary fronts the fuzzer, the trace-schema
//! validator and (when built with `check-sync`) the race pass; the
//! concurrency checks run as
//! `cargo test -p bgpbench-check --features check-sync`.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod fuzz;
pub mod interleave;
#[cfg(feature = "check-sync")]
pub mod race_models;
pub mod races;
pub mod sync;
pub mod vclock;
