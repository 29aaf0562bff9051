//! Happens-before race detection over the pushdown coherence trace.
//!
//! TELEPORT's relaxed coherence modes (§4.2) let the host and the
//! pushed-down context touch the same pages without messaging; the paper's
//! contract is that the application orders such conflicting accesses with
//! an explicit `syncmem` (§5 hygiene). This module checks that contract
//! dynamically: every access and synchronization edge of a run is appended
//! to a [`SyncLog`], and [`detect_races`] replays the log with per-page
//! vector clocks, flagging pairs of accesses from opposite sides that
//! touch the same page, include at least one write, and are not ordered
//! by any happens-before edge.
//!
//! The happens-before relation has two actors and four edge kinds:
//!
//! - [`SyncOp::SessionStart`] — the pushdown request carries the host's
//!   history to the temporary context (host → pushdown).
//! - [`SyncOp::SessionEnd`] — the host blocks on the pushdown response,
//!   so everything the context did precedes everything the host does next
//!   (pushdown → host). This is a *control-flow* edge: it orders accesses
//!   but does not imply the host *sees* the context's writes — staleness
//!   under relaxed modes is a visibility property, not a race.
//! - [`SyncOp::Syncmem`] — an explicit `syncmem` is a full two-way
//!   synchronization point.
//! - [`SyncOp::RoundTrip`] — a coherence round trip (invalidate,
//!   downgrade, tie-break) is a blocking request/response exchange and
//!   orders both sides. This is why `WriteInvalidate` runs are race-free
//!   by construction: every conflicting access is preceded by one.
//!
//! Detection is off by default and costs one branch per access when
//! disabled, so enabling it cannot perturb the virtual clock or the trace
//! digest of a race-free run: races are reported as
//! [`TraceEvent::RaceDetected`] (digest tag 21) only when one exists.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ddc_sim::{Lane, TraceEvent, Tracer};

/// The two sides of a pushdown session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Actor {
    /// The compute-pool process (application threads).
    Host = 0,
    /// The temporary context running in the memory pool.
    Pushdown = 1,
}

/// A two-entry vector clock, one component per [`Actor`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VClock(pub [u64; 2]);

impl VClock {
    /// Advance this actor's own component.
    fn tick(&mut self, a: Actor) {
        self.0[a as usize] += 1;
    }

    /// Component-wise maximum (receiving a message from `other`).
    fn join(&mut self, other: &VClock) {
        self.0[0] = self.0[0].max(other.0[0]);
        self.0[1] = self.0[1].max(other.0[1]);
    }

    /// `self` happens-before-or-equals `other`.
    fn le(&self, other: &VClock) -> bool {
        self.0[0] <= other.0[0] && self.0[1] <= other.0[1]
    }
}

/// One entry of the synchronization log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOp {
    /// `actor` touched `page`; `write` distinguishes stores from loads.
    Access {
        actor: Actor,
        page: u64,
        write: bool,
    },
    /// Pushdown request sent: host history flows into the context.
    SessionStart,
    /// Pushdown response received: context history flows back to the host.
    SessionEnd,
    /// Explicit `syncmem`: full two-way synchronization.
    Syncmem,
    /// A blocking coherence round trip initiated over `page`.
    RoundTrip { page: u64 },
}

/// A detected syncmem-hygiene violation: two unordered conflicting
/// accesses to `page`, at least one of them a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Race {
    /// The contended page.
    pub page: u64,
    /// Both accesses were writes (otherwise read/write).
    pub write_write: bool,
    /// The side whose access completed the race.
    pub second: Actor,
}

/// The enabled flag sits beside the log, not inside its `RefCell`: every
/// access on either side asks it, and while detection is off that must be
/// one load, not a borrow-flag round trip.
#[derive(Debug, Default)]
struct SyncLogInner {
    enabled: Cell<bool>,
    ops: RefCell<Vec<SyncOp>>,
}

/// Shared, cloneable handle to the synchronization log. Disabled by
/// default; [`SyncLog::record`] is a no-op until [`SyncLog::enable`].
#[derive(Debug, Clone, Default)]
pub struct SyncLog {
    inner: Rc<SyncLogInner>,
}

impl SyncLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start recording synchronization operations.
    pub fn enable(&self) {
        self.inner.enabled.set(true);
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Append one operation (no-op while disabled).
    #[inline]
    pub fn record(&self, op: SyncOp) {
        if self.is_enabled() {
            self.inner.ops.borrow_mut().push(op);
        }
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.inner.ops.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discard the recorded log (detection stays enabled/disabled as-is).
    pub fn clear(&self) {
        self.inner.ops.borrow_mut().clear();
    }

    /// Replay the log and return all races, without emitting trace events.
    pub fn check(&self) -> Vec<Race> {
        detect_races(&self.inner.ops.borrow())
    }

    /// Replay the log, emit one [`TraceEvent::RaceDetected`] per race on
    /// the compute lane (the side that observes the failure), and return
    /// the races. A race-free log emits nothing, so the trace digest of a
    /// clean run is identical with detection on or off.
    pub fn check_and_emit(&self, tracer: &Tracer) -> Vec<Race> {
        let races = self.check();
        for r in &races {
            tracer.emit(
                Lane::Compute,
                TraceEvent::RaceDetected {
                    page: r.page,
                    write_write: r.write_write,
                },
            );
        }
        races
    }
}

/// Per-page access history: the vector-clock snapshot of each actor's most
/// recent read and write of the page.
#[derive(Debug, Clone, Copy, Default)]
struct PageHistory {
    last_write: [Option<VClock>; 2],
    last_read: [Option<VClock>; 2],
}

/// Replay `ops` with per-actor vector clocks and per-page access
/// histories. Pages are tracked in a sorted map so the report order is
/// deterministic; at most one race is reported per page (the first one
/// found), which keeps the failure signal readable on badly racy runs.
pub fn detect_races(ops: &[SyncOp]) -> Vec<Race> {
    use std::collections::BTreeMap;

    let mut vc = [VClock::default(), VClock::default()];
    let mut pages: BTreeMap<u64, PageHistory> = BTreeMap::new();
    let mut races: Vec<Race> = Vec::new();
    let mut raced: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();

    for &op in ops {
        match op {
            SyncOp::Access { actor, page, write } => {
                let a = actor as usize;
                let other = 1 - a;
                vc[a].tick(actor);
                let now = vc[a];
                let hist = pages.entry(page).or_default();
                if !raced.contains(&page) {
                    // A conflicting pair is racy unless the other side's
                    // access happens-before this one.
                    let vs_write = hist.last_write[other].is_some_and(|w| !w.le(&now));
                    let vs_read = write && hist.last_read[other].is_some_and(|r| !r.le(&now));
                    if vs_write || vs_read {
                        raced.insert(page);
                        races.push(Race {
                            page,
                            write_write: write && vs_write,
                            second: actor,
                        });
                    }
                }
                if write {
                    hist.last_write[a] = Some(now);
                } else {
                    hist.last_read[a] = Some(now);
                }
            }
            SyncOp::SessionStart => {
                let host = vc[Actor::Host as usize];
                vc[Actor::Pushdown as usize].join(&host);
            }
            SyncOp::SessionEnd => {
                let push = vc[Actor::Pushdown as usize];
                vc[Actor::Host as usize].join(&push);
            }
            SyncOp::Syncmem | SyncOp::RoundTrip { .. } => {
                let merged = {
                    let mut m = vc[0];
                    m.join(&vc[1]);
                    m
                };
                vc[0] = merged;
                vc[1] = merged;
            }
        }
    }
    races
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(actor: Actor, page: u64, write: bool) -> SyncOp {
        SyncOp::Access { actor, page, write }
    }

    #[test]
    fn unordered_write_write_is_a_race() {
        let ops = [
            SyncOp::SessionStart,
            acc(Actor::Pushdown, 3, true),
            acc(Actor::Host, 3, true),
        ];
        let races = detect_races(&ops);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].page, 3);
        assert!(races[0].write_write);
    }

    #[test]
    fn unordered_read_write_is_a_race() {
        let ops = [
            SyncOp::SessionStart,
            acc(Actor::Pushdown, 7, true),
            acc(Actor::Host, 7, false),
        ];
        let races = detect_races(&ops);
        assert_eq!(races.len(), 1);
        assert!(!races[0].write_write);
    }

    #[test]
    fn reads_never_race_with_reads() {
        let ops = [
            SyncOp::SessionStart,
            acc(Actor::Pushdown, 1, false),
            acc(Actor::Host, 1, false),
        ];
        assert!(detect_races(&ops).is_empty());
    }

    #[test]
    fn session_edges_order_before_and_after() {
        // Host writes, ships the pushdown, context writes, host waits for
        // completion, host writes again: fully ordered, no race.
        let ops = [
            acc(Actor::Host, 5, true),
            SyncOp::SessionStart,
            acc(Actor::Pushdown, 5, true),
            SyncOp::SessionEnd,
            acc(Actor::Host, 5, true),
        ];
        assert!(detect_races(&ops).is_empty());
    }

    #[test]
    fn syncmem_edge_clears_the_conflict() {
        let ops = [
            SyncOp::SessionStart,
            acc(Actor::Pushdown, 9, true),
            SyncOp::Syncmem,
            acc(Actor::Host, 9, true),
        ];
        assert!(detect_races(&ops).is_empty());
    }

    #[test]
    fn round_trip_orders_the_pair() {
        let ops = [
            SyncOp::SessionStart,
            acc(Actor::Pushdown, 2, true),
            SyncOp::RoundTrip { page: 2 },
            acc(Actor::Host, 2, true),
        ];
        assert!(detect_races(&ops).is_empty());
    }

    #[test]
    fn one_race_reported_per_page() {
        let ops = [
            SyncOp::SessionStart,
            acc(Actor::Pushdown, 4, true),
            acc(Actor::Host, 4, true),
            acc(Actor::Host, 4, true),
            acc(Actor::Pushdown, 4, true),
        ];
        assert_eq!(detect_races(&ops).len(), 1);
    }

    #[test]
    fn distinct_pages_report_distinct_races() {
        let ops = [
            SyncOp::SessionStart,
            acc(Actor::Pushdown, 11, true),
            acc(Actor::Pushdown, 6, true),
            acc(Actor::Host, 11, true),
            acc(Actor::Host, 6, false),
        ];
        let races = detect_races(&ops);
        assert_eq!(races.len(), 2);
        // Report order follows the log, one entry per page.
        assert_eq!(races[0].page, 11);
        assert_eq!(races[1].page, 6);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = SyncLog::new();
        log.record(acc(Actor::Host, 1, true));
        assert!(log.is_empty());
        log.enable();
        log.record(acc(Actor::Host, 1, true));
        assert_eq!(log.len(), 1);
    }
}
