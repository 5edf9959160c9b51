//! Synthetic datasets, workloads, and traces for EAGr experiments (§5.1).
//!
//! * [`graphs`] — preferential-attachment "social" graphs, copying-model
//!   "web" graphs, Erdős–Rényi controls, and named scaled stand-ins for the
//!   paper's datasets ([`Dataset`]).
//! * [`workload`] — Zipfian read/write rate assignment and mixed event
//!   streams with a configurable write:read ratio.
//! * [`batch`] — [`EventBatch`]: timestamped runs of the event stream for
//!   the batched/sharded ingestion path.
//! * [`trace`] — the two-phase shifting trace standing in for the EPA-HTTP
//!   packet trace of Fig 13(a).

#![forbid(unsafe_code)]

pub mod batch;
pub mod graphs;
pub mod trace;
pub mod wire;
pub mod workload;

pub use batch::{batch_events, EventBatch};
pub use graphs::{erdos_renyi, parse_edge_list, social_graph, web_graph, Dataset};
pub use trace::{shifting_trace, TraceConfig};
pub use workload::{
    churn_stream, generate_events, rotating_hot_set, zipf_rates, ChurnConfig, Event, WorkloadConfig,
};
