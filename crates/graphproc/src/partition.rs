//! Vertex-cut edge partitioning — PowerGraph's signature technique for
//! power-law graphs.
//!
//! PowerGraph partitions *edges* (not vertices) across workers and
//! replicates the vertices that span partitions; the GAS engine's finalize
//! phase computes this placement while shuffling the graph (§5.2). The
//! quality metric is the **replication factor**: the average number of
//! workers holding a copy of each vertex — lower means less communication
//! per iteration.

use crate::graph::HostGraph;

/// The result of partitioning a graph's edges over `workers` workers.
#[derive(Debug, Clone)]
pub struct Partitioning {
    pub workers: usize,
    /// Partition of each undirected edge, indexed in `(u < v)` enumeration
    /// order.
    pub edge_partition: Vec<u8>,
    /// Bitmask of workers holding a replica of each vertex.
    replicas: Vec<u64>,
    /// Edges per partition.
    pub load: Vec<usize>,
}

impl Partitioning {
    /// Average number of replicas per vertex with at least one edge.
    pub fn replication_factor(&self) -> f64 {
        let (sum, cnt) = self
            .replicas
            .iter()
            .filter(|&&m| m != 0)
            .fold((0u32, 0usize), |(s, c), &m| (s + m.count_ones(), c + 1));
        if cnt == 0 {
            1.0
        } else {
            sum as f64 / cnt as f64
        }
    }

    /// Ratio of the most- to least-loaded partition (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let max = self.load.iter().copied().max().unwrap_or(0);
        let min = self.load.iter().copied().min().unwrap_or(0);
        if min == 0 {
            if max == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max as f64 / min as f64
        }
    }
}

/// PowerGraph's greedy vertex-cut heuristic: assign each edge to
///
/// 1. the least-loaded partition both endpoints already live on, else
/// 2. the least-loaded partition either endpoint lives on, else
/// 3. the least-loaded partition overall,
///
/// replicating endpoints as needed — subject to a balance constraint: a
/// locality-preferred partition is taken only while its load stays within a
/// slack band of the global minimum, otherwise the edge spills to the
/// least-loaded partition (without the constraint a connected graph floods
/// one partition). Deterministic (edges in `(u, v)` order, ties by
/// partition index).
pub fn greedy_vertex_cut(g: &HostGraph, workers: usize) -> Partitioning {
    assert!((1..=64).contains(&workers), "1..=64 workers supported");
    let n = g.n();
    let mut replicas = vec![0u64; n];
    let mut load = vec![0usize; workers];
    let mut edge_partition = Vec::with_capacity(g.m() / 2);
    let mut assigned = 0usize;

    let all = if workers == 64 {
        u64::MAX
    } else {
        (1u64 << workers) - 1
    };
    // The least-loaded workers overall: `at_min` holds every worker whose
    // load is `min_load`. Loads only grow, by one an edge, so the set is
    // refilled only when the edge that empties it raises the minimum.
    let mut min_load = 0usize;
    let mut at_min = all;

    for u in 0..n as u32 {
        for &v in g.neighbors(u) {
            if v <= u {
                continue; // each undirected edge once
            }
            let mu = replicas[u as usize];
            let mv = replicas[v as usize];
            let both = mu & mv;
            let either = mu | mv;
            let preferred = if both != 0 {
                pick_least(both, &load)
            } else if either != 0 {
                pick_least(either, &load)
            } else {
                None
            };
            let fallback = at_min.trailing_zeros() as usize;
            // Balance band: allow locality only while the preferred
            // partition is not much fuller than the emptiest one.
            let slack = assigned / workers / 8 + 1;
            let p = match preferred {
                Some(c) if load[c] <= min_load + slack => c,
                _ => fallback,
            };
            replicas[u as usize] |= 1 << p;
            replicas[v as usize] |= 1 << p;
            load[p] += 1;
            at_min &= !(1 << p);
            if at_min == 0 {
                min_load += 1;
                at_min = (0..workers)
                    .filter(|&w| load[w] == min_load)
                    .fold(0, |set, w| set | 1 << w);
            }
            assigned += 1;
            edge_partition.push(p as u8);
        }
    }
    Partitioning {
        workers,
        edge_partition,
        replicas,
        load,
    }
}

/// The least-loaded worker in `mask`, the lowest index on a tie; `None` for
/// an empty mask. Walks the set bits only, lowest first, so the first strict
/// minimum is the lowest-index one.
fn pick_least(mut mask: u64, load: &[usize]) -> Option<usize> {
    let mut best: Option<usize> = None;
    while mask != 0 {
        let p = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        if best.is_none_or(|b| load[p] < load[b]) {
            best = Some(p);
        }
    }
    best
}

/// Baseline for comparison: random (hash) edge placement, which ignores
/// locality and replicates heavily on power-law graphs.
pub fn hash_partition(g: &HostGraph, workers: usize) -> Partitioning {
    assert!((1..=64).contains(&workers));
    let n = g.n();
    let mut replicas = vec![0u64; n];
    let mut load = vec![0usize; workers];
    let mut edge_partition = Vec::new();
    for u in 0..n as u32 {
        for &v in g.neighbors(u) {
            if v <= u {
                continue;
            }
            let h = (u as u64 ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            let p = (h % workers as u64) as usize;
            replicas[u as usize] |= 1 << p;
            replicas[v as usize] |= 1 << p;
            load[p] += 1;
            edge_partition.push(p as u8);
        }
    }
    Partitioning {
        workers,
        edge_partition,
        replicas,
        load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{social_graph, uniform_graph};

    #[test]
    fn every_edge_is_assigned_and_endpoints_replicated() {
        let g = social_graph(500, 4, 9);
        let p = greedy_vertex_cut(&g, 8);
        assert_eq!(p.edge_partition.len(), g.m() / 2);
        assert_eq!(p.load.iter().sum::<usize>(), g.m() / 2);
        // Each assigned edge's endpoints exist on that partition.
        let mut idx = 0;
        for u in 0..g.n() as u32 {
            for &v in g.neighbors(u) {
                if v <= u {
                    continue;
                }
                let part = 1u64 << p.edge_partition[idx];
                assert_ne!(p.replicas[u as usize] & part, 0, "{u} on its edge's worker");
                assert_ne!(p.replicas[v as usize] & part, 0, "{v} on its edge's worker");
                idx += 1;
            }
        }
    }

    #[test]
    fn replication_factor_bounds() {
        let g = social_graph(1_000, 5, 3);
        let p = greedy_vertex_cut(&g, 8);
        let rf = p.replication_factor();
        assert!(rf >= 1.0);
        assert!(rf <= 8.0);
    }

    #[test]
    fn greedy_beats_hash_partitioning_on_power_law_graphs() {
        // The PowerGraph claim: greedy vertex-cuts replicate far less than
        // random placement on heavy-tailed graphs.
        let g = social_graph(2_000, 8, 17);
        let greedy = greedy_vertex_cut(&g, 16);
        let hashed = hash_partition(&g, 16);
        assert!(
            greedy.replication_factor() < hashed.replication_factor() * 0.8,
            "greedy {:.2} vs hash {:.2}",
            greedy.replication_factor(),
            hashed.replication_factor()
        );
    }

    #[test]
    fn load_stays_balanced() {
        let g = uniform_graph(1_000, 8_000, 5);
        let p = greedy_vertex_cut(&g, 4);
        assert!(
            p.imbalance() < 1.2,
            "greedy load imbalance was {:.2}",
            p.imbalance()
        );
    }

    #[test]
    fn single_worker_is_trivial() {
        let g = uniform_graph(50, 100, 1);
        let p = greedy_vertex_cut(&g, 1);
        assert_eq!(p.replication_factor(), 1.0);
        assert_eq!(p.imbalance(), 1.0);
    }

    /// [`greedy_vertex_cut`] as it was written before it walked set bits:
    /// every worker filtered by the mask, three times an edge.
    fn greedy_vertex_cut_by_filter(g: &HostGraph, workers: usize) -> Partitioning {
        let n = g.n();
        let mut replicas = vec![0u64; n];
        let mut load = vec![0usize; workers];
        let mut edge_partition = Vec::new();
        let mut assigned = 0usize;
        let pick_least = |mask: u64, load: &[usize]| -> Option<usize> {
            (0..load.len())
                .filter(|&p| mask & (1 << p) != 0)
                .min_by_key(|&p| (load[p], p))
        };
        let all = if workers == 64 {
            u64::MAX
        } else {
            (1u64 << workers) - 1
        };
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                if v <= u {
                    continue;
                }
                let mu = replicas[u as usize];
                let mv = replicas[v as usize];
                let preferred = if mu & mv != 0 {
                    pick_least(mu & mv, &load)
                } else if mu | mv != 0 {
                    pick_least(mu | mv, &load)
                } else {
                    None
                };
                let fallback = pick_least(all, &load).expect("some partition exists");
                let slack = assigned / workers / 8 + 1;
                let p = match preferred {
                    Some(c) if load[c] <= load[fallback] + slack => c,
                    _ => fallback,
                };
                replicas[u as usize] |= 1 << p;
                replicas[v as usize] |= 1 << p;
                load[p] += 1;
                assigned += 1;
                edge_partition.push(p as u8);
            }
        }
        Partitioning {
            workers,
            edge_partition,
            replicas,
            load,
        }
    }

    #[test]
    fn set_bit_walk_cuts_like_the_filter_it_replaced() {
        for (workers, seed) in [(1, 4), (8, 9), (64, 21)] {
            let g = social_graph(3_000, 6, seed);
            let got = greedy_vertex_cut(&g, workers);
            let want = greedy_vertex_cut_by_filter(&g, workers);
            assert_eq!(got.edge_partition, want.edge_partition, "{workers} workers");
            assert_eq!(got.load, want.load, "{workers} workers");
            assert_eq!(got.replicas, want.replicas, "{workers} workers");
            assert_eq!(
                got.replication_factor(),
                want.replication_factor(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn pick_least_takes_the_lowest_index_on_a_tie() {
        let load = [3, 1, 4, 1, 5];
        assert_eq!(pick_least(0, &load), None);
        assert_eq!(pick_least(0b11111, &load), Some(1));
        assert_eq!(pick_least(0b11000, &load), Some(3));
        assert_eq!(pick_least(0b10101, &load), Some(0));
    }

    #[test]
    fn deterministic() {
        let g = social_graph(800, 4, 2);
        let a = greedy_vertex_cut(&g, 8);
        let b = greedy_vertex_cut(&g, 8);
        assert_eq!(a.edge_partition, b.edge_partition);
    }
}
