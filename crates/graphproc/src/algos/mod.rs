//! The paper's graph workloads: SSSP, Reachability (RE), Connected
//! Components (CC) — plus PageRank as the fixed-iteration gather-heavy
//! case — each with a host-memory oracle.

pub mod cc;
pub mod pagerank;
pub mod reach;
pub mod sssp;
