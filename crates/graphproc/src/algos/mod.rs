//! The paper's graph workloads: SSSP, Reachability (RE) and Connected
//! Components (CC), each with a host-memory oracle.

pub mod cc;
pub mod reach;
pub mod sssp;
