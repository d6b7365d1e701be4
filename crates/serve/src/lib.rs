//! Prediction-as-a-service for persisted ICNet models.
//!
//! This crate turns the trained [`icnet::GraphModel`] regressors into a
//! long-lived network service (ROADMAP item 3): a checksummed registry of
//! persisted models, a length-prefixed TCP protocol carrying `.bench`
//! netlists plus key-gate masks, a bounded-queue worker pool with
//! per-request deadlines and load shedding, and an open-loop load
//! generator for measuring predictions/s and tail latency.
//!
//! The design contract is *graceful degradation*: under overload the
//! server sheds with a typed [`protocol::ErrorCode::Overloaded`] reply
//! instead of queueing unboundedly; slow requests fail with
//! `DeadlineExceeded`; malformed input of every kind gets a typed error
//! while the worker survives; and SIGINT drains in-flight requests. Every
//! failure path is reachable deterministically through `faults` plan
//! sites (`serve.accept`, `serve.read`, `serve.write`, `serve.worker`,
//! `serve.model.load`) and observable through `obs` `serve.request`
//! events. See DESIGN.md §8 for the wire format and the full fault
//! recovery matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadgen;
pub mod protocol;
pub mod registry;
pub mod server;

pub use loadgen::{run_levels, wait_ready, LevelReport, LoadgenConfig, Workload};
pub use protocol::{ErrorCode, FrameType, Reply, Request};
pub use registry::{save_model, ModelEntry, ModelRegistry, RegistryError};
pub use server::{ServeConfig, ServeStats, Server};
