//! Connected components by label propagation (CC in the paper's Fig 13).

use crate::gas::VertexProgram;

/// Each vertex converges to the minimum vertex id in its component.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnectedComponents;

impl VertexProgram for ConnectedComponents {
    fn name(&self) -> &'static str {
        "ConnectedComponents"
    }

    fn init(&self, v: u32) -> f64 {
        v as f64
    }

    fn gather_init(&self) -> f64 {
        f64::INFINITY
    }

    fn combine(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }

    fn scatter_msg(&self, val: f64) -> f64 {
        val
    }

    fn apply(&self, old: f64, acc: f64) -> f64 {
        old.min(acc)
    }

    fn changed(&self, old: f64, new: f64) -> bool {
        new < old
    }

    fn start_frontier(&self, n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }
}

/// Host-memory union-find oracle: component label = min vertex id.
pub fn oracle(g: &crate::graph::HostGraph) -> Vec<f64> {
    let n = g.n();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = x;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for v in 0..n as u32 {
        for &w in g.neighbors(v) {
            let (a, b) = (find(&mut parent, v), find(&mut parent, w));
            if a != b {
                // Union by smaller id so the root is the minimum.
                let (lo, hi) = (a.min(b), a.max(b));
                parent[hi as usize] = lo;
            }
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HostGraph;

    #[test]
    fn oracle_labels_components_by_min_id() {
        let g = HostGraph::from_edges(7, &[(1, 2), (2, 3), (5, 6)]);
        assert_eq!(oracle(&g), vec![0.0, 1.0, 1.0, 1.0, 4.0, 5.0, 5.0]);
    }

    #[test]
    fn program_starts_with_all_vertices() {
        let p = ConnectedComponents;
        assert_eq!(p.start_frontier(4), vec![0, 1, 2, 3]);
        assert_eq!(p.init(9), 9.0);
        assert_eq!(p.combine(3.0, 7.0), 3.0);
    }
}
