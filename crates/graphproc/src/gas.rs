//! The gather-apply-scatter engine (PowerGraph's execution model, §5.2).
//!
//! Execution follows the paper's description: load the input graph, run a
//! *finalize* phase that partitions and shuffles it into the engine's
//! working state, then iterate *gather → apply → scatter* until the vertex
//! program converges. Messages flow push-style: scatter combines a message
//! into each neighbor's accumulator (the data-intensive random-write phase
//! that dominates SSSP in Fig 10), gather drains the accumulator, apply
//! updates the vertex value.
//!
//! Each phase is a closure run through [`teleport::run_placed`], the one
//! placement wrap memdb's operators and mapred's phases share: pushed when
//! the [`GasPlan`] names it and the runtime is Teleport, compute-side
//! otherwise, its time and remote traffic summed into the phase's
//! [`WorkStat`]. The paper TELEPORTs finalize, gather, and scatter with
//! <100 lines each (Fig 11).

use ddc_os::Pattern;
use ddc_sim::SimDuration;
use teleport::{run_placed, Mem, PaperUnits, Plan, Region, Runtime, WorkStat};

use crate::graph::HostGraph;

/// Per-phase CPU cost constants (cycles).
pub mod cost {
    /// Handling one edge during scatter (message create + combine).
    pub const SCATTER_EDGE: u64 = 6;
    /// Draining one vertex's accumulator during gather.
    pub const GATHER_VERTEX: u64 = 4;
    /// Applying one vertex update.
    pub const APPLY_VERTEX: u64 = 6;
    /// Partitioning one edge during finalize.
    pub const FINALIZE_EDGE: u64 = 4;
}

/// A vertex program in the GAS model. Values are `f64` (vertex ids and hop
/// counts are exact well past any simulated graph size).
pub trait VertexProgram {
    fn name(&self) -> &'static str;
    /// Initial value of vertex `v`.
    fn init(&self, v: u32) -> f64;
    /// Identity element of the message combiner.
    fn gather_init(&self) -> f64;
    /// Combine two messages.
    fn combine(&self, a: f64, b: f64) -> f64;
    /// The message a vertex with value `val` sends along each of its edges.
    fn scatter_msg(&self, val: f64) -> f64;
    /// New value from the old value and the gathered accumulator.
    fn apply(&self, old: f64, acc: f64) -> f64;
    /// Does this update activate the vertex's neighbors?
    fn changed(&self, old: f64, new: f64) -> bool;
    /// The initially active vertices.
    fn start_frontier(&self, n: usize) -> Vec<u32>;
}

/// The phases that can be pushed to the memory pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    Finalize,
    Gather,
    Apply,
    Scatter,
}

/// The paper's choice: push the data-intensive finalize, gather, and
/// scatter phases (§5.2).
impl PaperUnits for Phase {
    const PAPER: &'static [Phase] = &[Phase::Finalize, Phase::Gather, Phase::Scatter];
}

/// Which phases run in the memory pool.
pub type GasPlan = Plan<Phase>;

/// Per-phase report of one algorithm run (the Fig 10 middle panel).
#[derive(Debug, Clone, Copy, Default)]
pub struct GasReport {
    pub finalize: WorkStat,
    pub gather: WorkStat,
    pub apply: WorkStat,
    pub scatter: WorkStat,
    pub iterations: u64,
}

impl GasReport {
    pub fn total(&self) -> SimDuration {
        self.finalize.time + self.gather.time + self.apply.time + self.scatter.time
    }

    pub fn stat(mut self, p: Phase) -> WorkStat {
        *self.stat_mut(p)
    }

    fn stat_mut(&mut self, p: Phase) -> &mut WorkStat {
        match p {
            Phase::Finalize => &mut self.finalize,
            Phase::Gather => &mut self.gather,
            Phase::Apply => &mut self.apply,
            Phase::Scatter => &mut self.scatter,
        }
    }
}

/// The loaded graph: CSR arrays in simulated (remote) memory.
#[derive(Debug, Clone, Copy)]
pub struct GasEngine {
    pub n: usize,
    pub m: usize,
    offsets: Region<u32>,
    edges: Region<u32>,
}

impl GasEngine {
    /// Load a host graph into simulated memory (setup; callers normally
    /// `begin_timing` afterwards).
    pub fn load<M: Mem>(m: &mut M, g: &HostGraph) -> GasEngine {
        GasEngine {
            n: g.n(),
            m: g.m(),
            offsets: m.alloc_region_from(&g.offsets),
            edges: m.alloc_region_from(&g.edges),
        }
    }

    /// Run `prog` to convergence, returning the final vertex values and the
    /// per-phase report.
    pub fn run<P: VertexProgram>(
        &self,
        rt: &mut Runtime,
        prog: &P,
        plan: &GasPlan,
    ) -> (Vec<f64>, GasReport) {
        let mut rep = GasReport::default();
        let eng = *self;
        let n = self.n;

        // ---- Finalize: partition + shuffle the graph into the engine's
        // working state; also materializes values, degrees, accumulators.
        let ph = Phase::Finalize;
        let state = run_placed(rt, plan, ph, rep.stat_mut(ph), move |m| {
            // Shuffle: stream the CSR arrays and write the working copies
            // (the partitioned layout the workers execute against).
            let mut offs: Vec<u32> = Vec::new();
            m.read_range(&eng.offsets, 0, n + 1, &mut offs);
            let w_offsets = m.alloc_region_from(&offs);

            let mut w_edges = m.region_writer::<u32>(eng.m);
            let chunk = 16_384;
            let mut buf: Vec<u32> = Vec::new();
            let mut base = 0usize;
            while base < eng.m {
                let take = chunk.min(eng.m - base);
                buf.clear();
                m.read_range(&eng.edges, base, take, &mut buf);
                w_edges.push(m, &buf);
                base += take;
            }
            let w_edges = w_edges.finish(m);
            m.charge_cycles(cost::FINALIZE_EDGE * eng.m as u64);

            // Vertex-cut placement of the edges over the workers
            // (PowerGraph's greedy heuristic), billed by formula: the
            // assignment is scheduler metadata nothing here reads, so the
            // host does not compute it.
            m.charge_cycles(cost::FINALIZE_EDGE * eng.m as u64 / 2);

            // Degrees, initial values, message accumulators.
            let degs: Vec<u32> = offs.windows(2).map(|w| w[1] - w[0]).collect();
            let degrees = m.alloc_region_from(&degs);

            let values = m.alloc_region::<f64>(n);
            (w_offsets, w_edges, degrees, values, offs)
        });
        let (_w_offsets, w_edges, degrees, values, host_offsets) = state;
        let _ = degrees; // neighbour counts come from the host offsets below; region kept for fidelity

        // Value/accumulator initialization (cheap, sequential writes).
        {
            let init_vals: Vec<f64> = (0..n as u32).map(|v| prog.init(v)).collect();
            rt.run_local(|m| m.write_range(&values, 0, &init_vals));
        }
        let msg_acc = {
            let init: Vec<f64> = vec![prog.gather_init(); n];
            rt.run_local(|m| m.alloc_region_from(&init))
        };

        // ---- Iterate.
        let mut frontier = Frontier(vec![0; n.div_ceil(64)]);
        for v in prog.start_frontier(n) {
            frontier.mark(v);
        }
        let mut changed = frontier.drain();
        let mut iter = 0u64;
        while !changed.is_empty() {
            iter += 1;

            // Scatter: every changed vertex combines a message into each
            // neighbor's accumulator (random reads + writes).
            let ph = Phase::Scatter;
            let active = run_placed(rt, plan, ph, rep.stat_mut(ph), |m| {
                let mut nbrs: Vec<u32> = Vec::new();
                for &u in &changed {
                    let val = m.get(&values, u as usize, Pattern::Rand);
                    let lo = host_offsets[u as usize] as usize;
                    let cnt = host_offsets[u as usize + 1] as usize - lo;
                    nbrs.clear();
                    if cnt > 0 {
                        m.read_range(&w_edges, lo, cnt, &mut nbrs);
                    }
                    let msg = prog.scatter_msg(val);
                    for &w in nbrs.iter() {
                        let acc = m.get(&msg_acc, w as usize, Pattern::Rand);
                        m.set(&msg_acc, w as usize, prog.combine(acc, msg), Pattern::Rand);
                        frontier.mark(w);
                    }
                    m.charge_cycles(cost::SCATTER_EDGE * cnt as u64);
                }
                frontier.drain()
            });

            // Gather: drain accumulators of the activated vertices.
            let ph = Phase::Gather;
            let gathered = run_placed(rt, plan, ph, rep.stat_mut(ph), |m| {
                let mut out: Vec<(u32, f64)> = Vec::with_capacity(active.len());
                for &w in &active {
                    let acc = m.get(&msg_acc, w as usize, Pattern::Rand);
                    m.set(&msg_acc, w as usize, prog.gather_init(), Pattern::Rand);
                    out.push((w, acc));
                }
                m.charge_cycles(cost::GATHER_VERTEX * active.len() as u64);
                out
            });

            // Apply: fold accumulators into vertex values.
            let ph = Phase::Apply;
            changed = run_placed(rt, plan, ph, rep.stat_mut(ph), |m| {
                let mut changed: Vec<u32> = Vec::new();
                for &(w, acc) in &gathered {
                    let old = m.get(&values, w as usize, Pattern::Rand);
                    let new = prog.apply(old, acc);
                    if prog.changed(old, new) {
                        m.set(&values, w as usize, new, Pattern::Rand);
                        changed.push(w);
                    }
                }
                m.charge_cycles(cost::APPLY_VERTEX * gathered.len() as u64);
                changed
            });
        }
        rep.iterations = iter;

        // Ship the result back (not attributed to any GAS phase).
        let mut result: Vec<f64> = Vec::with_capacity(n);
        rt.run_local(|m| m.read_range(&values, 0, n, &mut result));
        (result, rep)
    }
}

/// A set of vertices as a bitmap over `0..n`: marking is one `or`, and
/// [`Frontier::drain`] emits the marked vertices in order, each once (the
/// sorted, duplicate-free list a sort and dedup of the marks would give),
/// leaving the set empty. Linear in the marks plus `n / 64`.
struct Frontier(Vec<u64>);

impl Frontier {
    fn mark(&mut self, v: u32) {
        self.0[v as usize / 64] |= 1 << (v % 64);
    }

    fn drain(&mut self) -> Vec<u32> {
        let mut out = Vec::new();
        for (i, word) in self.0.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(i as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A drawn `(kind, raw)` as a vertex below `n`, favouring the bitmap's
    /// edges: vertex 0, `n - 1`, and either side of a word boundary.
    fn vertex(n: usize, kind: u8, raw: u32) -> u32 {
        let boundary = 64 * (raw as usize % n.div_ceil(64) + 1);
        let v = match kind {
            0 => 0,
            1 => n - 1,
            2 => boundary - 1,
            3 => boundary,
            4 => boundary + 1,
            _ => raw as usize,
        };
        (v % n) as u32
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Draining the bitmap gives what `sort_unstable` + `dedup` of the
        /// same marks gives, every vertex marked up to five times, and
        /// leaves it empty for the next round.
        #[test]
        fn frontier_drains_the_sorted_deduplicated_marks(
            n in prop_oneof![1usize..200, (1usize..40).prop_map(|k| 64 * k), 1usize..5_000],
            rounds in prop::collection::vec(
                prop::collection::vec((0u8..6, any::<u32>(), 1usize..6), 0..120),
                1..4,
            ),
        ) {
            let mut frontier = Frontier(vec![0; n.div_ceil(64)]);
            for picks in &rounds {
                let mut want = Vec::new();
                for &(kind, raw, copies) in picks {
                    let v = vertex(n, kind, raw);
                    for _ in 0..copies {
                        frontier.mark(v);
                        want.push(v);
                    }
                }
                want.sort_unstable();
                want.dedup();
                prop_assert_eq!(frontier.drain(), want, "n {}", n);
            }
        }
    }
}
