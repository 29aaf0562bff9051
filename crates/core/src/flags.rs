//! Pushdown options: the `flags` argument of the `pushdown` syscall.
//!
//! The paper's syscall is `pushdown(fn, arg, flags)`; `flags` selects the
//! coherence protocol (§4.2's relaxations) and other behaviors such as
//! timeouts. This module is the typed Rust rendering of that argument.

use ddc_sim::SimDuration;

/// Which coherence protocol governs the pushdown session (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoherenceMode {
    /// The default MESI-inspired write-invalidate protocol: at any time a
    /// page has at most one writable copy (SWMR).
    #[default]
    WriteInvalidate,
    /// Partial Store Ordering relaxation: when one pool requests write
    /// permission, the other pool's copy is downgraded to read-only instead
    /// of removed. Write *serialization* per location is kept, write
    /// *propagation* is relaxed — a reader may observe a stale copy until
    /// the next synchronization.
    Pso,
    /// Weak Ordering relaxation: both pools may hold writable copies;
    /// propagation happens only at synchronization points (the end of the
    /// pushdown call, or an explicit `syncmem`). Avoids writer–writer
    /// contention entirely (§7.6).
    WeakOrdering,
    /// Coherence disabled: the application manages synchronization manually
    /// with `syncmem`. Used to handle false sharing (Fig 7).
    Disabled,
}

impl CoherenceMode {
    /// Whether a pool acquiring write permission notifies the other pool.
    pub fn signals_on_write(self) -> bool {
        matches!(self, CoherenceMode::WriteInvalidate | CoherenceMode::Pso)
    }

    /// Whether a pool acquiring read permission over the other pool's
    /// writable copy forces a downgrade + flush.
    pub fn signals_on_read(self) -> bool {
        matches!(self, CoherenceMode::WriteInvalidate | CoherenceMode::Pso)
    }

    /// Whether modifications propagate automatically at the end of the
    /// pushdown (true for everything except fully disabled coherence).
    pub fn syncs_at_completion(self) -> bool {
        !matches!(self, CoherenceMode::Disabled)
    }
}

/// Pre/post data synchronization strategy (§4.1 vs the Fig 20 strawman).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncStrategy {
    /// The paper's default: transfer nothing up front; ship only the
    /// RLE-compressed resident-page list and let the coherence protocol
    /// move pages on demand.
    #[default]
    OnDemand,
    /// The strawman: flush and drop the whole compute cache before the
    /// call, re-fetch every previously-resident page afterwards.
    Eager,
}

/// Options for one pushdown call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PushdownOpts {
    pub coherence: CoherenceMode,
    pub sync: SyncStrategy,
    /// Give up waiting after this much time in the memory pool's queue or
    /// execution; `None` blocks indefinitely (the paper's default).
    pub timeout: Option<SimDuration>,
    /// SLO budget for the whole call: if the pushdown *completes* but more
    /// than this much virtual time elapsed end to end, the result is
    /// discarded and [`crate::PushdownError::DeadlineExceeded`] surfaces
    /// instead. Unlike `timeout` (which races the queue and cancels), a
    /// deadline never interrupts the work — it judges it afterwards, and it
    /// shrinks across the retries of a resilient call.
    pub deadline: Option<SimDuration>,
}

impl PushdownOpts {
    /// The paper's defaults: write-invalidate coherence, on-demand sync,
    /// no timeout.
    pub fn new() -> Self {
        Self::default()
    }

    pub fn coherence(mut self, mode: CoherenceMode) -> Self {
        self.coherence = mode;
        self
    }

    pub fn sync(mut self, sync: SyncStrategy) -> Self {
        self.sync = sync;
        self
    }

    pub fn timeout(mut self, t: SimDuration) -> Self {
        self.timeout = Some(t);
        self
    }

    pub fn deadline(mut self, d: SimDuration) -> Self {
        self.deadline = Some(d);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let o = PushdownOpts::new();
        assert_eq!(o.coherence, CoherenceMode::WriteInvalidate);
        assert_eq!(o.sync, SyncStrategy::OnDemand);
        assert_eq!(o.timeout, None);
    }

    #[test]
    fn builder_chains() {
        let o = PushdownOpts::new()
            .coherence(CoherenceMode::Pso)
            .sync(SyncStrategy::Eager)
            .timeout(SimDuration::from_secs(1));
        assert_eq!(o.coherence, CoherenceMode::Pso);
        assert_eq!(o.sync, SyncStrategy::Eager);
        assert_eq!(o.timeout, Some(SimDuration::from_secs(1)));
    }

    #[test]
    fn mode_signalling_matrix() {
        use CoherenceMode::*;
        assert!(WriteInvalidate.signals_on_write() && WriteInvalidate.signals_on_read());
        assert!(Pso.signals_on_write() && Pso.signals_on_read());
        assert!(!WeakOrdering.signals_on_write() && !WeakOrdering.signals_on_read());
        assert!(!Disabled.signals_on_write());
        assert!(WeakOrdering.syncs_at_completion());
        assert!(!Disabled.syncs_at_completion());
    }
}
