//! # LARPredictor — Adaptive Predictor Integration for System Performance Prediction
//!
//! A from-scratch Rust reproduction of Zhang & Figueiredo's IPPS 2007 paper.
//! The headline idea: given a pool of simple time-series predictors (LAST,
//! AR, sliding-window average, …), *learn* which one will be best for the next
//! step — using PCA-reduced prediction windows and a k-NN classifier over
//! historical best-predictor labels — and then run **only** that predictor,
//! instead of running the whole pool forever like the Network Weather Service.
//!
//! This crate is a facade: it re-exports the workspace's crates under stable
//! module names. See each for the full API:
//!
//! * [`larp`] — the LARPredictor itself: training, selection, baselines
//!   (NWS cumulative MSE, windowed MSE, static, oracle), evaluation protocol,
//!   online operation with QA-triggered retraining;
//! * [`predictors`] — the model pool (LAST, AR via Yule–Walker, SW_AVG, plus
//!   the extended EWMA/median/tendency/polynomial/ARI family);
//! * [`learn`] — PCA, brute-force k-NN, majority vote, the train/test split;
//! * [`timeseries`] — series containers, normalisation, windowing, metrics;
//! * [`linalg`] — the numerical kernels (Jacobi eigensolver, Levinson–Durbin);
//! * [`vmsim`] — the simulated VM monitoring testbed (5 VM profiles,
//!   12 metrics each, monitor agent, round-robin database, profiler);
//! * [`fleet`] — the sharded multi-stream serving engine (batching,
//!   backpressure, lifecycle, fleet-wide checkpointing, durable ingestion);
//! * [`store`] — the durable trace store (crash-safe segmented WAL);
//! * [`cluster`] — the cluster tier (consistent-hash placement, live stream
//!   migration, warm-standby failover);
//! * [`simrng`] — deterministic RNG + distributions used everywhere.
//!
//! ## Quickstart
//!
//! ```
//! use larpredictor::larp::{LarpConfig, TrainedLarp};
//! use larpredictor::vmsim::{self, VmProfile};
//!
//! // Generate the paper's VM2 traces and pick the CPU one.
//! let traces = vmsim::traceset::vm_traces(VmProfile::Vm2, 42);
//! let (key, series) = &traces[0];
//! assert_eq!(key.label(), "VM2/CPU_usedsec");
//!
//! // Train on the first half, predict over the second, paper settings.
//! let (train, test) = series.values().split_at(series.len() / 2);
//! let model = TrainedLarp::train(train, &LarpConfig::paper(5)).unwrap();
//! let run = larpredictor::larp::run_selector(&mut model.selector(), &model, test).unwrap();
//! println!("normalized MSE: {:.4}", run.mse);
//! ```

#![warn(missing_docs)]

pub use cluster;
pub use fleet;
pub use larp;
pub use learn;
pub use linalg;
pub use predictors;
pub use simrng;
pub use store;
pub use timeseries;
pub use vmsim;
