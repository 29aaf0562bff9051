//! Single-source shortest paths (unit edge weights), the paper's primary
//! PowerGraph benchmark.

use crate::gas::VertexProgram;

/// Sentinel for "unreachable".
pub const INF: f64 = f64::INFINITY;

/// SSSP with unit weights: distances are hop counts (BFS levels).
#[derive(Debug, Clone, Copy)]
pub struct Sssp {
    pub source: u32,
}

impl VertexProgram for Sssp {
    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn init(&self, v: u32) -> f64 {
        if v == self.source {
            0.0
        } else {
            INF
        }
    }

    fn gather_init(&self) -> f64 {
        INF
    }

    fn combine(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }

    fn scatter_msg(&self, val: f64) -> f64 {
        val + 1.0
    }

    fn apply(&self, old: f64, acc: f64) -> f64 {
        old.min(acc)
    }

    fn changed(&self, old: f64, new: f64) -> bool {
        new < old
    }

    fn start_frontier(&self, _n: usize) -> Vec<u32> {
        vec![self.source]
    }
}

/// Host-memory BFS oracle.
pub fn oracle(g: &crate::graph::HostGraph, source: u32) -> Vec<f64> {
    let n = g.n();
    let mut dist = vec![INF; n];
    dist[source as usize] = 0.0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &w in g.neighbors(u) {
            if dist[w as usize] == INF {
                dist[w as usize] = du + 1.0;
                queue.push_back(w);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HostGraph;

    #[test]
    fn oracle_bfs_on_a_path() {
        let g = HostGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let d = oracle(&g, 0);
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0, INF]);
    }

    #[test]
    fn program_semantics() {
        let p = Sssp { source: 3 };
        assert_eq!(p.init(3), 0.0);
        assert_eq!(p.init(0), INF);
        assert_eq!(p.combine(4.0, 2.0), 2.0);
        assert_eq!(p.scatter_msg(2.0), 3.0);
        assert!(p.changed(5.0, 4.0));
        assert!(!p.changed(4.0, 4.0));
        assert_eq!(p.start_frontier(10), vec![3]);
    }
}
