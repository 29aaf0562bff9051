//! Single-source reachability (RE in the paper's Fig 13).

use crate::gas::VertexProgram;

/// Reachability from a source: value 1.0 once reached, else 0.0.
#[derive(Debug, Clone, Copy)]
pub struct Reach {
    pub source: u32,
}

impl VertexProgram for Reach {
    fn name(&self) -> &'static str {
        "Reachability"
    }

    fn init(&self, v: u32) -> f64 {
        if v == self.source {
            1.0
        } else {
            0.0
        }
    }

    fn gather_init(&self) -> f64 {
        0.0
    }

    fn combine(&self, a: f64, b: f64) -> f64 {
        a.max(b)
    }

    fn scatter_msg(&self, val: f64) -> f64 {
        val
    }

    fn apply(&self, old: f64, acc: f64) -> f64 {
        old.max(acc)
    }

    fn changed(&self, old: f64, new: f64) -> bool {
        new > old
    }

    fn start_frontier(&self, _n: usize) -> Vec<u32> {
        vec![self.source]
    }
}

/// Host-memory oracle: 1.0 for every vertex reachable from `source`.
pub fn oracle(g: &crate::graph::HostGraph, source: u32) -> Vec<f64> {
    crate::algos::sssp::oracle(g, source)
        .into_iter()
        .map(|d| if d.is_finite() { 1.0 } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HostGraph;

    #[test]
    fn oracle_marks_component_of_source() {
        let g = HostGraph::from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        assert_eq!(oracle(&g, 0), vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
        assert_eq!(oracle(&g, 4), vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn program_semantics() {
        let p = Reach { source: 0 };
        assert_eq!(p.combine(0.0, 1.0), 1.0);
        assert!(p.changed(0.0, 1.0));
        assert!(!p.changed(1.0, 1.0));
    }
}
