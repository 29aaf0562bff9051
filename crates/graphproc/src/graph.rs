//! Host-side graph representation (CSR) used for generation, loading, and
//! oracle computation.

/// An undirected graph in compressed sparse row form, with each undirected
/// edge stored in both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostGraph {
    /// `offsets[v]..offsets[v+1]` indexes `edges` for vertex `v`.
    pub offsets: Vec<u32>,
    pub edges: Vec<u32>,
}

impl HostGraph {
    /// Build from an undirected edge list (duplicates and self-loops are
    /// dropped).
    ///
    /// The edges are normalized to `(low, high)`, sorted and deduplicated,
    /// then placed by counting. Walking the sorted pairs, a vertex `x`
    /// receives its lower neighbours (pairs `(a, x)`, `a` ascending) before
    /// any pair that starts at `x`, then its higher ones (`b` ascending), so
    /// every adjacency list comes out sorted.
    pub fn from_edges(n: usize, edge_list: &[(u32, u32)]) -> HostGraph {
        assert!(n > 0, "graph needs at least one vertex");
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(edge_list.len());
        for &(u, v) in edge_list {
            assert!((u as usize) < n && (v as usize) < n, "vertex out of range");
            if u != v {
                pairs.push((u.min(v), u.max(v)));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in &pairs {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for v in 1..=n {
            offsets[v] += offsets[v - 1];
        }
        let mut next = offsets[..n].to_vec();
        let mut edges = vec![0u32; 2 * pairs.len()];
        for &(a, b) in &pairs {
            for (from, to) in [(a, b), (b, a)] {
                edges[next[from as usize] as usize] = to;
                next[from as usize] += 1;
            }
        }
        HostGraph { offsets, edges }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edge slots (2× the undirected edge count).
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    pub fn degree(&self, v: u32) -> u32 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Bytes occupied by the CSR arrays (used to size the compute cache at
    /// the paper's working-set ratio).
    pub fn bytes(&self) -> usize {
        (self.offsets.len() + self.edges.len()) * 4
    }

    /// Structural validation: offsets monotone, endpoints in range,
    /// adjacency symmetric.
    pub fn validate(&self) {
        assert!(self.offsets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*self.offsets.last().unwrap() as usize, self.edges.len());
        let n = self.n() as u32;
        assert!(self.edges.iter().all(|&e| e < n));
        for v in 0..n {
            for &w in self.neighbors(v) {
                assert!(
                    self.neighbors(w).binary_search(&v).is_ok(),
                    "asymmetric edge {v}->{w}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_builds_symmetric_csr() {
        let g = HostGraph::from_edges(4, &[(0, 1), (1, 2), (0, 1), (2, 2), (3, 0)]);
        g.validate();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 6, "3 unique undirected edges, both directions");
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(2), 1);
    }

    /// `from_edges` as it was written over a hashed seen-set, kept as the
    /// reference the sort-and-dedup build must equal.
    fn from_edges_hashed(n: usize, edge_list: &[(u32, u32)]) -> HostGraph {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut seen = std::collections::HashSet::new();
        for &(u, v) in edge_list {
            if u == v || !seen.insert((u.min(v), u.max(v))) {
                continue;
            }
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut offsets = vec![0];
        let mut edges = Vec::new();
        for list in &mut adj {
            list.sort_unstable();
            edges.extend_from_slice(list);
            offsets.push(edges.len() as u32);
        }
        HostGraph { offsets, edges }
    }

    #[test]
    fn from_edges_matches_the_hash_set_reference() {
        use rand::{Rng, SeedableRng};
        for seed in 0..6u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.random_range(1..300usize);
            // Dense enough for duplicates, reversed duplicates and loops.
            let edges: Vec<(u32, u32)> = (0..rng.random_range(0..4 * n))
                .map(|_| {
                    let u = rng.random_range(0..n as u32);
                    (u, rng.random_range(0..n as u32))
                })
                .collect();
            let g = HostGraph::from_edges(n, &edges);
            assert_eq!(g, from_edges_hashed(n, &edges), "seed {seed}, n {n}");
            g.validate();
        }
        let social = |n, m, seed| crate::gen::social_graph(n, m, seed);
        for (n, m, seed) in [(2_000, 4, 99), (500, 8, 7)] {
            let g = social(n, m, seed);
            let mut edges = Vec::new();
            for v in 0..n as u32 {
                edges.extend(g.neighbors(v).iter().map(|&w| (v, w)));
            }
            assert_eq!(
                from_edges_hashed(n, &edges),
                g,
                "social_graph({n}, {m}, {seed})"
            );
        }
    }

    #[test]
    fn isolated_vertices_are_allowed() {
        let g = HostGraph::from_edges(3, &[(0, 1)]);
        assert_eq!(g.degree(2), 0);
        assert!(g.neighbors(2).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edges_panic() {
        HostGraph::from_edges(2, &[(0, 5)]);
    }
}
