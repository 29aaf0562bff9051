//! # graphproc — a gather-apply-scatter graph engine on disaggregated memory
//!
//! The PowerGraph stand-in of the TELEPORT reproduction (paper §5.2). The
//! graph's CSR arrays, vertex values, and message accumulators live in the
//! memory pool; the engine's finalize / gather / apply / scatter phases are
//! each a function call that can be TELEPORTed with one wrapped call.
//!
//! - [`graph`] — CSR graphs and validation;
//! - [`gen`] — power-law social-network generation (stand-in for the
//!   paper's ground-truth community graphs);
//! - [`gas`] — the engine, [`gas::VertexProgram`], per-phase pushdown
//!   plans, and the Fig 10 per-phase report;
//! - [`algos`] — SSSP, Reachability and Connected Components, each with a
//!   host-memory oracle.

#![deny(unsafe_code)]

pub mod algos;
pub mod gas;
pub mod gen;
pub mod graph;
pub mod partition;

pub use algos::cc::ConnectedComponents;
pub use algos::reach::Reach;
pub use algos::sssp::Sssp;
pub use gas::{GasEngine, GasPlan, GasReport, Phase, VertexProgram};
pub use gen::{social_graph, uniform_graph};
pub use graph::HostGraph;
pub use partition::{greedy_vertex_cut, hash_partition, Partitioning};
