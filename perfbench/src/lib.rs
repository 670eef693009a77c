//! End-to-end and per-layer benchmark of the block-bitmap migration
//! engines.
//!
//! One process runs one named workload closed loop — one migration in
//! flight, the next started only after the previous one is verified —
//! for a fixed number of seconds, and prints one JSON result line. The
//! four workloads cover the three clocks the repository runs on:
//! live-engine wall time (`live-duplex`, `live-tcp`), simulator host time
//! (`sim-diabolical`) and the fleet executor (`fleet-e15`).
//!
//! Tracing is done from outside the program: [`wrap`] times calls into
//! the public `vdisk::Storage`, `migrate::live::Connector` /
//! `simnet::transport::Transport` and `orchestrator::FleetDynamics`
//! traits, and [`replay`] re-runs the traced run's own inputs through
//! the content hash, LZ, frame codec, bitmap scan and workload
//! generator. No program code is instrumented for the benchmark.

pub mod host;
pub mod metrics;
pub mod replay;
pub mod runs;
pub mod trace;
pub mod wrap;
