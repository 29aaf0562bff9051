//! The TELEPORT runtime: platforms, typed memory regions, and the
//! `pushdown` call (paper §3).
//!
//! [`Runtime`] is the simulation's equivalent of "a process running under a
//! given OS". Three platforms exist, matching the paper's comparison axes:
//!
//! - **Local** — a monolithic Linux server (spills to a local SSD);
//! - **BaseDdc** — an unmodified disaggregated OS (LegoOS): every
//!   `pushdown` call simply runs the function on the compute pool;
//! - **Teleport** — the disaggregated OS plus the TELEPORT kernel: a
//!   `pushdown` call ships the function to the memory pool, with the full
//!   ❶–❽ lifecycle of paper Fig 5 and the coherence protocol of §4.
//!
//! Applications are written once against the [`Mem`] trait and run
//! unmodified on all three platforms — the analogue of the paper's claim
//! that applying TELEPORT "only involved the selective wrapping of existing
//! function calls".

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::ops::AddAssign;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ddc_os::{
    page_chunks, pages_spanned, Dos, HostSpan, PageId, Pattern, PoolLoss, RoutingWindow, VAddr,
};
use ddc_sim::{
    CpuConfig, DdcConfig, EventKind, FaultInjector, FaultPlan, Lane, MetricsRegistry,
    MonolithicConfig, MsgClass, NetLedger, PushdownDisruption, RecoveryAction, SimDuration,
    SimTime, TraceEvent, Tracer, FOREVER, PAGE_SIZE,
};

use crate::breakdown::Breakdown;
use crate::coherence::{mirror_into_stale, CoherenceStats, PushdownSession, TieBreak};
use crate::fault::{CancelOutcome, PushdownError};
use crate::flags::{PushdownOpts, SyncStrategy};
use crate::hits::HitBatch;
use crate::resilience::{ExecutionVia, Recovered, ResiliencePolicy};
use crate::rle::RUN_WIRE_BYTES;
use crate::rpc::{AdmissionPolicy, RpcServer, REQUEST_HEADER_BYTES, RESPONSE_BYTES};

/// Tunable constants of the TELEPORT kernel implementation (§6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TeleportConfig {
    /// Waking a sleeping TELEPORT instance in the memory pool.
    pub wakeup: SimDuration,
    /// Fixed cost of instantiating the temporary user context (kernel
    /// thread creation + vfork-style attach; no page copies).
    pub ctx_create: SimDuration,
    /// Memory-pool cycles to clone one page-table entry (Fig 8 line 7).
    pub cycles_per_pte_clone: u64,
    /// Memory-pool cycles to check one compute-resident entry against the
    /// cloned table (Fig 8 lines 8–13).
    pub cycles_per_pte_check: u64,
    /// Compute-pool cycles to scan one cached page when building the
    /// resident list shipped with the request.
    pub cycles_per_list_entry: u64,
    /// Backoff `t` before the compute pool reissues a contended write
    /// request (§4.1 tie-breaking).
    pub backoff_t: SimDuration,
    /// Conservative timeout after which a non-completing pushed function is
    /// killed (§3.2).
    pub kill_timeout: SimDuration,
    /// Which side wins a concurrent write-write tie (§4.1): the paper's
    /// `FavorMemory`, or `FavorCompute` for the §7.6 ablation.
    pub tiebreak: TieBreak,
}

impl Default for TeleportConfig {
    fn default() -> Self {
        TeleportConfig {
            wakeup: SimDuration::from_micros(5),
            ctx_create: SimDuration::from_micros(30),
            cycles_per_pte_clone: 20,
            cycles_per_pte_check: 40,
            cycles_per_list_entry: 10,
            backoff_t: SimDuration::from_micros(10),
            kill_timeout: SimDuration::from_secs(600),
            tiebreak: TieBreak::FavorMemory,
        }
    }
}

/// Which platform a [`Runtime`] simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformKind {
    Local,
    BaseDdc,
    Teleport,
}

impl PlatformKind {
    pub fn label(self) -> &'static str {
        match self {
            PlatformKind::Local => "Local (Linux)",
            PlatformKind::BaseDdc => "Base DDC (LegoOS)",
            PlatformKind::Teleport => "TELEPORT",
        }
    }
}

/// When to clone a slow pushdown (tail-latency hedging, the gray-failure
/// mitigation for a shard that answers but answers slowly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgePolicy {
    /// Fire the hedge once the primary has been in flight this long.
    pub delay: SimDuration,
    /// Upper bound on the per-call seeded jitter added to `delay`, so a
    /// fleet of hedged calls does not stampede in lockstep. Zero disables
    /// jitter.
    pub jitter: SimDuration,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            delay: SimDuration::from_micros(500),
            jitter: SimDuration::from_micros(100),
        }
    }
}

impl HedgePolicy {
    /// The hedge trigger for `call` under `seed`: `delay` plus a
    /// deterministic jitter from a golden-ratio mix of `(seed, call)` —
    /// deliberately *not* the shared fault RNG, whose draw sequence must
    /// not depend on whether hedging is enabled.
    pub fn fire_after(&self, seed: u64, call: u64) -> SimDuration {
        let j = self.jitter.as_nanos();
        if j == 0 {
            return self.delay;
        }
        let mut x = seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.delay + SimDuration::from_nanos(x % j)
    }
}

/// How a hedged call resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HedgeOutcome {
    /// The primary completed before the hedge delay elapsed.
    NotFired,
    /// The hedge fired but the primary still finished first.
    PrimaryWon,
    /// The hedge fired and its clone finished first; the losing primary
    /// was cancelled (declined — it had already run, per §3.2).
    HedgeWon,
}

/// Result of [`Runtime::pushdown_hedged`]: the winning value plus the
/// caller-visible completion latency of the modeled race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hedged<R> {
    pub value: R,
    pub outcome: HedgeOutcome,
    /// When the caller's result was ready, relative to the call's start:
    /// `hedge delay + clone` when the hedge wins, else the primary's
    /// duration. Both legs' full costs are still charged to virtual time —
    /// this is what the *caller* observed, not what the rack paid.
    pub latency: SimDuration,
}

/// A fixed-size element type storable in simulated memory.
pub trait Scalar: Copy {
    const BYTES: usize;
    fn decode(b: &[u8]) -> Self;
    fn encode(self, b: &mut [u8]);
}

macro_rules! impl_scalar {
    ($t:ty, $n:expr) => {
        impl Scalar for $t {
            const BYTES: usize = $n;
            #[inline]
            fn decode(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("scalar width"))
            }
            #[inline]
            fn encode(self, b: &mut [u8]) {
                b.copy_from_slice(&self.to_le_bytes());
            }
        }
    };
}

impl_scalar!(u64, 8);
impl_scalar!(i64, 8);
impl_scalar!(u32, 4);
impl_scalar!(i32, 4);
impl_scalar!(u16, 2);
impl_scalar!(u8, 1);
impl_scalar!(f64, 8);

/// A typed array living in simulated process memory.
#[derive(Debug)]
pub struct Region<T> {
    addr: VAddr,
    len: usize,
    _marker: PhantomData<T>,
}

// Manual impls: `Region<T>` is an address + length regardless of `T`.
impl<T> Clone for Region<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Region<T> {}

impl<T: Scalar> Region<T> {
    pub fn addr(&self) -> VAddr {
        self.addr
    }

    /// Number of `T` elements.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn byte_len(&self) -> usize {
        self.len * T::BYTES
    }

    /// Address of element `i`.
    #[inline]
    // The one `debug_assert!` here is an application-level index bound on
    // the hot access path, not cross-pool protocol state.
    #[allow(clippy::disallowed_macros)]
    pub fn at(&self, i: usize) -> VAddr {
        debug_assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        self.addr.offset((i * T::BYTES) as u64)
    }
}

/// Uniform metered access to simulated memory. Implemented once for the
/// compute side, by [`Runtime`], and once for the memory side, by an [`Arm`]
/// inside a Teleport pushdown (a compute-side [`Arm`] forwards to the
/// runtime's). Application kernels are written once against this trait.
pub trait Mem {
    /// Allocate zeroed bytes; returns the start address.
    fn alloc(&mut self, bytes: usize) -> VAddr;
    /// Read raw bytes with the side's cost model.
    fn read_raw(&mut self, addr: VAddr, len: usize, pat: Pattern) -> &[u8];
    /// Write `len` bytes at `addr` with the side's cost model: the access
    /// is charged first, then `fill` writes straight into the backing bytes
    /// (it must set all of them — they hold the old contents until it does).
    fn write_with(&mut self, addr: VAddr, len: usize, pat: Pattern, fill: impl FnOnce(&mut [u8]))
    where
        Self: Sized;
    /// Charge CPU cycles at the side's clock rate.
    fn charge_cycles(&mut self, cycles: u64);
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// Read from an open file (§3.1: pushed functions use the process's
    /// open files like any local function — and skip the fabric hop a
    /// compute-side reader pays).
    fn read_file(&mut self, file: ddc_os::FileId, offset: usize, len: usize) -> &[u8];
    /// Append to an open file.
    fn append_file(&mut self, file: ddc_os::FileId, data: &[u8]);
    /// Allocate `bytes` for a [`RegionWriter`], charged as [`alloc`](Self::alloc)
    /// but not zeroed: the memory stays out of reach until
    /// [`zero_unwritten`](Self::zero_unwritten) has zeroed what the writer
    /// left unwritten.
    fn alloc_unwritten(&mut self, bytes: usize) -> Unwritten;
    /// Zero `at`'s allocation from byte `from` to the end of its last page,
    /// uncharged (a zeroed [`alloc`](Self::alloc) is not charged for its
    /// zeros either).
    fn zero_unwritten(&mut self, at: Unwritten, from: usize);
    /// The re-read half of [`gather`](Self::gather): charge `hits` more
    /// reads of `elem` bytes on the page of `addr`, right after a read of
    /// that page, and return `[addr, addr + len)` (on the same page) with no
    /// further charge; or return `None`, charging nothing, where a repeated
    /// read on this side is not a pure sum of hits and the caller must read
    /// element by element.
    fn reread(
        &mut self,
        addr: VAddr,
        len: usize,
        elem: usize,
        pat: Pattern,
        hits: u64,
    ) -> Option<&[u8]>;
    /// A prefetch handle on `r`'s host backing, resolved once: each
    /// [`HostSpan::prefetch`] through it asks the host CPU to cache bytes
    /// that later accesses will read, and is invisible to the model — no
    /// virtual time, trace event, page-cache touch or work count, and no
    /// simulated access moves. A caller that knows its next accesses (a
    /// hash index's slot some keys ahead) uses it to overlap the host's
    /// cache misses with the bookkeeping of the access before.
    fn host_span<T: Scalar>(&self, r: &Region<T>) -> HostSpan
    where
        Self: Sized;
    /// Run `f` over a [`HitBatch`] on the pages `spans` cover, `(start,
    /// bytes)` each, and bill its reads and cycle charges in one settle,
    /// leaving what the same [`RandReads`](crate::RandReads) calls made one
    /// by one through this handle leave (values, virtual time, LRU order,
    /// paging stats, metrics, trace); or return `None`, running and
    /// charging nothing, where those calls would not all be pure cache
    /// hits: on the memory side, while a page of the spans is not resident
    /// in the compute cache, while a plane checks every hit, and while
    /// disabled-coherence stale snapshots are held.
    fn hit_batch<R>(
        &mut self,
        spans: &[(VAddr, usize)],
        f: impl FnOnce(&mut HitBatch<'_>) -> R,
    ) -> Option<R>
    where
        Self: Sized;

    /// Allocate a typed region of `n` elements.
    fn alloc_region<T: Scalar>(&mut self, n: usize) -> Region<T>
    where
        Self: Sized,
    {
        let Some(bytes) = n.checked_mul(T::BYTES) else {
            panic!("region of {n} {}-byte elements overflows", T::BYTES)
        };
        let addr = self.alloc(bytes.max(1));
        Region {
            addr,
            len: n,
            _marker: PhantomData,
        }
    }

    /// Start a region of `n` elements to be filled front to back: allocated
    /// and charged here, as [`alloc_region`](Self::alloc_region) would be,
    /// but the backing is not zeroed first. Only [`RegionWriter::finish`]
    /// hands the region out, after zeroing whatever was not pushed, so no
    /// reader can reach a byte before it is written.
    fn region_writer<T: Scalar>(&mut self, n: usize) -> RegionWriter<T>
    where
        Self: Sized,
    {
        let Some(bytes) = n.checked_mul(T::BYTES) else {
            panic!("region of {n} {}-byte elements overflows", T::BYTES)
        };
        RegionWriter {
            region: Region {
                addr: self.alloc_unwritten(bytes.max(1)).0,
                len: n,
                _marker: PhantomData,
            },
            filled: 0,
        }
    }

    /// A new region holding `vals`: a [`region_writer`](Self::region_writer)
    /// with one push, charged as [`alloc_region`](Self::alloc_region)
    /// followed by [`write_range`](Self::write_range).
    fn alloc_region_from<T: Scalar>(&mut self, vals: &[T]) -> Region<T>
    where
        Self: Sized,
    {
        let mut w = self.region_writer::<T>(vals.len());
        w.push(self, vals);
        w.finish(self)
    }

    /// Read element `i` of `r`.
    fn get<T: Scalar>(&mut self, r: &Region<T>, i: usize, pat: Pattern) -> T
    where
        Self: Sized,
    {
        T::decode(self.read_raw(r.at(i), T::BYTES, pat))
    }

    /// Append `r[row]` for each of `rows` to `out`, charged exactly as a
    /// loop of [`get`](Self::get) would charge it: the same hits, misses,
    /// LRU moves, trace records and virtual time. Each maximal run of
    /// consecutive rows on one page pays one full read; the rest of the run
    /// are the hits they would be, billed together through
    /// [`reread`](Self::reread) where this side allows it and one by one
    /// where it does not. A row out of range panics as `get` does.
    fn gather<T: Scalar>(&mut self, r: &Region<T>, rows: &[u32], pat: Pattern, out: &mut Vec<T>)
    where
        Self: Sized,
    {
        let per_page = PAGE_SIZE / T::BYTES;
        out.reserve(rows.len());
        let mut runs = 0;
        for run in rows.chunk_by(|a, b| *a as usize / per_page == *b as usize / per_page) {
            runs += 1;
            let (first, rest) = (run[0] as usize, &run[1..]);
            out.push(self.get(r, first, pat));
            if rest.is_empty() {
                continue;
            }
            // A run holding a bad row reads element by element, so it
            // panics where `get` would, with the same charges before it.
            let lo = first - first % per_page;
            let page = if rest.iter().all(|&row| (row as usize) < r.len()) {
                let n = (r.len() - lo).min(per_page);
                self.reread(r.at(lo), n * T::BYTES, T::BYTES, pat, rest.len() as u64)
            } else {
                None
            };
            match page {
                Some(bytes) => out.extend(rest.iter().map(|&row| {
                    let at = (row as usize - lo) * T::BYTES;
                    T::decode(&bytes[at..at + T::BYTES])
                })),
                None => {
                    for &row in rest {
                        out.push(self.get(r, row as usize, pat));
                    }
                }
            }
        }
        ddc_os::work::count_gather(rows.len(), runs);
    }

    /// Write raw bytes with the side's cost model.
    fn write_raw(&mut self, addr: VAddr, data: &[u8], pat: Pattern)
    where
        Self: Sized,
    {
        self.write_with(addr, data.len(), pat, |dst| dst.copy_from_slice(data));
    }

    /// Write element `i` of `r`.
    fn set<T: Scalar>(&mut self, r: &Region<T>, i: usize, v: T, pat: Pattern)
    where
        Self: Sized,
    {
        self.write_with(r.at(i), T::BYTES, pat, |dst| v.encode(dst));
    }

    /// Append `count` elements starting at index `start` to `out`,
    /// streaming page-sized chunks (sequential cost model).
    fn read_range<T: Scalar>(&mut self, r: &Region<T>, start: usize, count: usize, out: &mut Vec<T>)
    where
        Self: Sized,
    {
        let end = range_end("read_range", start, count, r.len());
        out.reserve(count);
        let per_page = (PAGE_SIZE / T::BYTES).max(1);
        for i in (start..end).step_by(per_page) {
            let n = per_page.min(end - i);
            let bytes = self.read_raw(r.at(i), n * T::BYTES, Pattern::Seq);
            // An exact-size iterator: one capacity check a page, not one an
            // element.
            out.extend(bytes.chunks_exact(T::BYTES).map(T::decode));
        }
    }

    /// Write `vals` into `r` starting at index `start`, streaming
    /// page-sized chunks.
    fn write_range<T: Scalar>(&mut self, r: &Region<T>, start: usize, vals: &[T])
    where
        Self: Sized,
    {
        range_end("write_range", start, vals.len(), r.len());
        let per_page = (PAGE_SIZE / T::BYTES).max(1);
        for (ci, chunk) in vals.chunks(per_page).enumerate() {
            let at = r.at(start + ci * per_page);
            self.write_with(at, chunk.len() * T::BYTES, Pattern::Seq, |dst| {
                for (d, v) in dst.chunks_exact_mut(T::BYTES).zip(chunk) {
                    v.encode(d);
                }
            });
        }
    }
}

/// `start + count`, if `[start, start + count)` lies inside a region of
/// `len` elements; a panic naming the range if not, an overflowing `start`
/// included.
#[inline]
fn range_end(op: &str, start: usize, count: usize, len: usize) -> usize {
    match start.checked_add(count) {
        Some(end) if end <= len => end,
        _ => range_out_of_bounds(op, start, count, len),
    }
}

#[cold]
#[inline(never)]
fn range_out_of_bounds(op: &str, start: usize, count: usize, len: usize) -> ! {
    panic!("{op} of {count} elements at index {start} out of bounds ({len})")
}

/// An allocation whose bytes are not yet all written, and no way to read
/// it: [`Mem::alloc_unwritten`] makes one for a [`RegionWriter`], and
/// [`Mem::zero_unwritten`] takes it back when the writer finishes.
#[derive(Debug)]
pub struct Unwritten(VAddr);

/// A region being filled front to back, made by [`Mem::region_writer`]. It
/// is pushed and finished through the handle that made it.
#[derive(Debug)]
#[must_use = "the region is reachable only through `finish`"]
pub struct RegionWriter<T> {
    /// Private until `finish`: nothing outside this module can read it.
    region: Region<T>,
    /// Elements pushed so far: the next push lands at this index.
    filled: usize,
}

impl<T: Scalar> RegionWriter<T> {
    /// Write `vals` at the cursor, as [`Mem::write_range`] (same charges),
    /// and move the cursor past them.
    pub fn push<M: Mem>(&mut self, m: &mut M, vals: &[T]) {
        m.write_range(&self.region, self.filled, vals);
        self.filled += vals.len();
    }

    /// Zero everything not pushed, the padding to the end of the last page
    /// included (a page that already reads zero is read, not written), and
    /// hand the region out.
    pub fn finish<M: Mem>(self, m: &mut M) -> Region<T> {
        m.zero_unwritten(Unwritten(self.region.addr), self.filled * T::BYTES);
        self.region
    }
}

/// The access handle passed to a pushdown function. On the Teleport
/// platform it charges memory-pool costs and drives the coherence protocol;
/// on Local/BaseDdc (and for functions the planner chose not to push) it is
/// the runtime itself: every access goes through [`Runtime`]'s own [`Mem`],
/// so a compute-side arm sees exactly the view `Runtime::get` sees, stale
/// snapshots included.
pub struct Arm<'a> {
    rt: &'a mut Runtime,
    /// The coherence session of the pushdown this arm runs inside, on the
    /// memory side; `None` is a compute-side arm.
    session: Option<&'a mut PushdownSession>,
}

/// `CpuConfig::cycles` of one call site's last count: a site that charges
/// the same count call after call divides once, and each new count once
/// more. A memo belongs to one site, so to one CPU, looked up only when the
/// count changes, and returns what the conversion itself would: the default
/// holds 0 cycles, which cost 0 ns.
#[derive(Debug, Default, Clone)]
pub(crate) struct CycleMemo {
    cycles: u64,
    cost: SimDuration,
}

impl CycleMemo {
    #[inline]
    pub(crate) fn cost(&mut self, cycles: u64, cpu: impl FnOnce() -> CpuConfig) -> SimDuration {
        if self.cycles != cycles {
            *self = CycleMemo {
                cycles,
                cost: cpu().cycles(cycles),
            };
        }
        self.cost
    }
}

/// The conversions the pushdown fixed path repeats with inputs that rarely
/// change between calls: steps ❶ and ❹'s per-entry charges, and the last
/// `charge_cycles` of each side.
#[derive(Debug, Default)]
struct FixedPathMemo {
    /// ❶ `cycles_per_list_entry × resident`, compute CPU.
    list_scan: CycleMemo,
    /// ❹ `cycles_per_pte_clone × allocated pages`, memory CPU.
    pte_clone: CycleMemo,
    /// ❹ `cycles_per_pte_check × resident`, memory CPU.
    pte_check: CycleMemo,
    /// Compute side: the runtime, and so every compute-side arm.
    compute_charge: CycleMemo,
    /// Memory side (arms inside a Teleport pushdown).
    memory_charge: CycleMemo,
}

/// A compute-pool thread running beside the pushed function (the paper's
/// two-thread application, §4 / §7.6). On the memory side its accesses go
/// through the call's coherence session, so they contend with the pushed
/// function's.
impl Arm<'_> {
    /// Bill `cycles` of compute-pool CPU, as [`Runtime::charge_cycles`]
    /// does, on either side.
    pub fn compute_cycles(&mut self, cycles: u64) {
        self.rt.charge_cycles(cycles);
    }

    /// A compute-side access: on the memory side it settles coherence
    /// against this call's session first
    /// ([`PushdownSession::compute_access`]); on the compute side it is the
    /// plain compute access. No bytes are read or written.
    pub fn compute_access(&mut self, addr: VAddr, len: usize, write: bool, pat: Pattern) {
        match &mut self.session {
            Some(s) => s.compute_access(&mut self.rt.dos, addr, len, write, pat),
            None if write => self.rt.write_with(addr, len, pat, |_| {}),
            None => {
                let _ = self.rt.read_raw(addr, len, pat);
            }
        }
    }
}

impl Mem for Arm<'_> {
    fn alloc(&mut self, bytes: usize) -> VAddr {
        self.rt.alloc(bytes)
    }

    #[inline]
    fn read_raw(&mut self, addr: VAddr, len: usize, pat: Pattern) -> &[u8] {
        let Some(s) = &mut self.session else {
            return self.rt.read_raw(addr, len, pat);
        };
        // The host fetches the bytes while coherence and the pool are modeled.
        self.rt.dos.space().prefetch(addr);
        s.mem_access(&mut self.rt.dos, addr, len, false, pat);
        self.rt.dos.space().bytes(addr, len)
    }

    fn write_with(&mut self, addr: VAddr, len: usize, pat: Pattern, fill: impl FnOnce(&mut [u8])) {
        let Some(s) = &mut self.session else {
            return self.rt.write_with(addr, len, pat, fill);
        };
        self.rt.dos.space().prefetch(addr);
        s.mem_access(&mut self.rt.dos, addr, len, true, pat);
        fill(self.rt.dos.space_mut().bytes_mut(addr, len));
    }

    #[inline]
    fn charge_cycles(&mut self, cycles: u64) {
        if self.session.is_none() {
            return self.rt.charge_cycles(cycles);
        }
        let dos = &mut self.rt.dos;
        let cost = self
            .rt
            .memo
            .memory_charge
            .cost(cycles, || dos.ddc_config().memory_cpu);
        dos.charge(cost);
    }

    fn now(&self) -> SimTime {
        self.rt.now()
    }

    fn read_file(&mut self, file: ddc_os::FileId, offset: usize, len: usize) -> &[u8] {
        if self.session.is_none() {
            return self.rt.read_file(file, offset, len);
        }
        self.rt.dos.file_read(file, offset, len, true)
    }

    fn append_file(&mut self, file: ddc_os::FileId, data: &[u8]) {
        if self.session.is_none() {
            return self.rt.append_file(file, data);
        }
        self.rt.dos.file_append(file, data, true);
    }

    fn alloc_unwritten(&mut self, bytes: usize) -> Unwritten {
        self.rt.alloc_unwritten(bytes)
    }

    fn zero_unwritten(&mut self, at: Unwritten, from: usize) {
        self.rt.zero_unwritten(at, from);
    }

    #[inline]
    fn reread(
        &mut self,
        addr: VAddr,
        len: usize,
        elem: usize,
        pat: Pattern,
        hits: u64,
    ) -> Option<&[u8]> {
        let Some(s) = &mut self.session else {
            return self.rt.reread(addr, len, elem, pat, hits);
        };
        let charged = s.mem_repeat_reads(&mut self.rt.dos, addr.page(), elem, pat, hits);
        charged.then(|| self.rt.dos.space().bytes(addr, len))
    }

    /// Both sides read the one backing, so the arm's span is the runtime's.
    fn host_span<T: Scalar>(&self, r: &Region<T>) -> HostSpan {
        self.rt.host_span(r)
    }

    /// A memory-side read goes through the session and the pool, never the
    /// compute cache, so only a compute-side arm (the runtime) batches.
    #[inline]
    fn hit_batch<R>(
        &mut self,
        spans: &[(VAddr, usize)],
        f: impl FnOnce(&mut HitBatch<'_>) -> R,
    ) -> Option<R> {
        match self.session {
            Some(_) => None,
            None => self.rt.hit_batch(spans, f),
        }
    }
}

/// Everything the runtime counts or remembers about the current timed
/// window. `begin_timing` replaces it wholesale, so a counter added here
/// can never be forgotten there. An event the trace has a kind for is not
/// counted here: its metric reads the tracer's count of that kind.
#[derive(Default)]
struct WindowLedger {
    /// Pushdown calls entered on *any* platform, used to address
    /// call-indexed fault specs (unlike `pushdown_calls`, which counts
    /// only Teleport lifecycle runs).
    fault_call_idx: u64,
    pushdown_calls: u64,
    resilience_retries: u64,
    resilience_fallbacks: u64,
    breakdown: LastAndTotal<Breakdown>,
    coherence: LastAndTotal<CoherenceStats>,
    /// Virtual time the sequential charge-out billed beyond what hedged
    /// callers actually observed (wall cost minus the modeled race's
    /// latency). A serving tier subtracts this from its slot timeline: the
    /// rack paid for both legs, but the client-visible completion is the
    /// race.
    hedge_credit: SimDuration,
    /// Same idea for synthetic health probes: their cost rides whichever
    /// pushdown triggered the probe driver, but the probing is the health
    /// plane's own background work, not that session's.
    probe_credit: SimDuration,
}

/// What the last pushdown of the window reported, and the window's sum.
#[derive(Default)]
struct LastAndTotal<T> {
    last: Option<T>,
    total: T,
}

impl<T: Copy + AddAssign> LastAndTotal<T> {
    fn note(&mut self, v: T) {
        self.last = Some(v);
        self.total += v;
    }
}

/// One pushdown call, built by [`Runtime::enter`] and read by every step
/// after it: the verdict, the deadline judge, and the two drivers that
/// re-run a call (`pushdown_resilient`, `pushdown_hedged`).
struct Call {
    /// The call index call-indexed fault specs address.
    idx: u64,
    opts: PushdownOpts,
    /// The deadline budget covers the call end to end from here.
    entered: SimTime,
    /// Data losses counted before the call; any more poison its result.
    loss_before: u64,
    /// The workqueue request step ❹ dequeued for this call — `None` if no
    /// request of it ran — so a winning hedge cancels only what ran.
    req: Option<u64>,
}

/// A simulated process on one of the three platforms.
pub struct Runtime {
    dos: Dos,
    kind: PlatformKind,
    tcfg: TeleportConfig,
    server: RpcServer,
    alive: bool,
    /// Counters and per-window state, reset by `begin_timing`.
    ledger: WindowLedger,
    /// Compute-visible stale page snapshots left behind by
    /// disabled-coherence pushdowns, until `syncmem` reconciles them.
    /// `BTreeMap` so reconciliation walks pages in seed-stable order.
    stale: BTreeMap<PageId, Vec<u8>>,
    memo: FixedPathMemo,
    /// Simulated backlog ahead of the next request in the memory pool's
    /// workqueue (other tenants' pushdowns).
    queue_backlog: SimDuration,
    /// Memory-side admission control: when set, a pushdown arriving behind
    /// too deep a workqueue is shed with [`PushdownError::Rejected`]
    /// before it queues.
    admission: Option<AdmissionPolicy>,
    scratch: Vec<u8>,
}

impl Runtime {
    /// A monolithic Linux server ("Local execution" in the figures).
    pub fn local(cfg: MonolithicConfig) -> Self {
        let dos = Dos::new_monolithic(cfg);
        Self::build(dos, PlatformKind::Local, TeleportConfig::default())
    }

    /// An unmodified disaggregated OS ("Base DDC" / LegoOS).
    pub fn base_ddc(cfg: DdcConfig) -> Self {
        let dos = Dos::new_disaggregated(cfg);
        Self::build(dos, PlatformKind::BaseDdc, TeleportConfig::default())
    }

    /// The disaggregated OS with the TELEPORT kernel.
    pub fn teleport(cfg: DdcConfig) -> Self {
        Self::teleport_with(cfg, TeleportConfig::default())
    }

    /// TELEPORT with non-default kernel constants.
    pub fn teleport_with(cfg: DdcConfig, tcfg: TeleportConfig) -> Self {
        Self::build(Dos::new_disaggregated(cfg), PlatformKind::Teleport, tcfg)
    }

    fn build(dos: Dos, kind: PlatformKind, tcfg: TeleportConfig) -> Self {
        let instances = match kind {
            PlatformKind::Teleport => dos.ddc_config().memory_contexts.max(1),
            _ => 1,
        };
        Runtime {
            server: RpcServer::new(instances, tcfg.wakeup),
            dos,
            kind,
            tcfg,
            alive: true,
            ledger: WindowLedger::default(),
            stale: BTreeMap::new(),
            memo: FixedPathMemo::default(),
            queue_backlog: SimDuration::ZERO,
            admission: None,
            scratch: Vec::new(),
        }
    }

    pub fn kind(&self) -> PlatformKind {
        self.kind
    }

    pub fn dos(&self) -> &Dos {
        &self.dos
    }

    pub fn dos_mut(&mut self) -> &mut Dos {
        &mut self.dos
    }

    /// Elapsed virtual time.
    pub fn elapsed(&self) -> SimDuration {
        self.dos.clock().now().since(SimTime::ZERO)
    }

    /// Reset clock and metric ledgers (call between load and the timed
    /// run).
    pub fn begin_timing(&mut self) {
        self.dos.begin_timing();
        self.ledger = WindowLedger::default();
    }

    /// Flush and drop the compute cache for a deterministic cold start.
    pub fn drop_cache(&mut self) {
        self.dos.drop_cache();
    }

    /// Create a file in the storage pool (setup).
    pub fn create_file(&mut self, content: Vec<u8>) -> ddc_os::FileId {
        self.dos.create_file(content)
    }

    pub fn paging_stats(&self) -> ddc_os::PagingStats {
        self.dos.stats()
    }

    pub fn net_ledger(&self) -> NetLedger {
        self.dos.fabric().ledger()
    }

    pub fn last_breakdown(&self) -> Option<Breakdown> {
        self.ledger.breakdown.last
    }

    pub fn total_breakdown(&self) -> Breakdown {
        self.ledger.breakdown.total
    }

    pub fn last_coherence_stats(&self) -> Option<CoherenceStats> {
        self.ledger.coherence.last
    }

    pub fn pushdown_calls(&self) -> u64 {
        self.ledger.pushdown_calls
    }

    /// The process-wide event-trace handle (shared with the kernel, fabric,
    /// and SSD). It counts every event kind from `begin_timing` on; call
    /// [`Runtime::enable_tracing`] (or `trace().enable()`) to also record
    /// the events.
    pub fn trace(&self) -> &Tracer {
        self.dos.tracer()
    }

    /// Turn on event recording. Until called, emission is a count
    /// increment and a single branch, and no simulated result (metrics
    /// included) depends on it either way.
    pub fn enable_tracing(&self) {
        self.dos.tracer().enable();
    }

    /// Snapshot every layer's counters into one named registry: the
    /// kernel's `paging.*` / `net.*` / `ssd.*`, plus runtime-level
    /// `pushdown.*`, `rpc.*`, `coherence.*`, and the tracer's `trace.*`
    /// per-kind event counts, which are kept whether or not tracing
    /// records.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = self.dos.metrics();
        m.set("pushdown.calls", self.ledger.pushdown_calls);
        m.set("rpc.wakeups", self.server.wakeups());
        let t = self.dos.tracer();
        let c = self.ledger.coherence.total;
        m.set("coherence.round_trips", t.count(EventKind::CoherenceMsg));
        m.set("coherence.backoffs", c.backoffs);
        m.set("coherence.pages_written_memside", c.pages_written_memside);
        for kind in EventKind::ALL {
            m.set(kind.metric_name(), t.count(kind));
        }
        m.set("pushdown.deadline_misses", self.deadline_misses());
        m.set("hedge.fired", self.hedges_fired());
        m.set("hedge.won", self.hedges_won());
        m.set("hedge.credit_ns", self.ledger.hedge_credit.as_nanos());
        m.set("health.probe_ns", self.ledger.probe_credit.as_nanos());
        m.set("resilience.retries", self.ledger.resilience_retries);
        m.set("resilience.fallbacks", self.ledger.resilience_fallbacks);
        m.set("admission.sheds", self.admission_sheds());
        m.set("topology.pools", self.dos.pool_count() as u64);
        m.set("topology.routed_pushdowns", t.count(EventKind::PoolRouted));
        m.set(
            "topology.fanout_pushdowns",
            t.count(EventKind::PushdownFanout),
        );
        m.set("failover.promotions", self.failovers());
        if let Some(inj) = self.dos.injector() {
            m.set("faults.injected", inj.injected_count());
        }
        m
    }

    /// Install a fault plan: its injector is wired into the kernel (its
    /// fabric, SSD, integrity plane and liveness gate) and polled by the
    /// runtime's own decision points (the workqueue, pushdown execution).
    /// Returns the injector so callers can inspect `injected_count()`
    /// afterwards. Installing a new plan replaces any previous one.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> FaultInjector {
        let inj = FaultInjector::new(plan, self.dos.clock().clone(), self.dos.tracer().clone());
        self.dos.install_faults(&inj);
        inj
    }

    /// The injector backing the legacy one-shot `inject_*` helpers,
    /// installing an empty plan on first use.
    fn ensure_injector(&mut self) -> FaultInjector {
        match self.dos.injector() {
            Some(inj) => inj.clone(),
            None => self.install_fault_plan(FaultPlan::new(0)),
        }
    }

    /// Simulate losing the memory pool (network or hardware failure).
    /// Equivalent to installing [`FaultPlan::memory_pool_death`] from now.
    pub fn inject_memory_pool_failure(&mut self) {
        let from = self.dos.clock().now();
        self.ensure_injector()
            .add(FaultPlan::new(0).memory_pool_death(from));
    }

    /// Simulate other tenants' requests sitting in the memory pool's
    /// workqueue ahead of the next pushdown call. The next `pushdown`
    /// either waits out the backlog or — if its `timeout` elapses first —
    /// issues a `try_cancel`, which succeeds because the request has not
    /// started (§3.2). Waiting consumes the backlog; a cancelled call
    /// leaves it in place (the other tenants' work is still there).
    /// Equivalent to installing [`FaultPlan::queue_backlog_burst`] from now on.
    pub fn inject_queue_backlog(&mut self, d: SimDuration) {
        let from = self.dos.clock().now();
        self.ensure_injector()
            .add(FaultPlan::new(0).queue_backlog_burst(from, FOREVER, d));
    }

    /// Install (or clear) memory-side admission control for subsequent
    /// pushdown calls.
    pub fn set_admission_policy(&mut self, policy: Option<AdmissionPolicy>) {
        self.admission = policy;
    }

    /// Pushdowns shed by admission control since `begin_timing`.
    pub fn admission_sheds(&self) -> u64 {
        self.trace().count(EventKind::AdmissionShed)
    }

    /// Primary→backup pool promotions since `begin_timing`.
    pub fn failovers(&self) -> u64 {
        self.dos.failover_epochs().len() as u64
    }

    /// Hedges fired by `pushdown_hedged` since `begin_timing`.
    pub fn hedges_fired(&self) -> u64 {
        self.trace().count(EventKind::HedgeFired)
    }

    /// Hedges whose clone beat the primary since `begin_timing`.
    pub fn hedges_won(&self) -> u64 {
        self.trace().count(EventKind::HedgeWon)
    }

    /// Pushdowns that completed past their deadline budget since
    /// `begin_timing`.
    pub fn deadline_misses(&self) -> u64 {
        self.trace().count(EventKind::DeadlineExceeded)
    }

    /// Wall cost the sequential hedge charge-out billed beyond what the
    /// hedged callers observed, since `begin_timing`. A serving tier
    /// subtracts the per-call delta from its logical slot timeline so
    /// tail percentiles are built from the modeled race, while the raw
    /// virtual clock keeps billing both legs.
    pub fn hedge_credit(&self) -> SimDuration {
        self.ledger.hedge_credit
    }

    /// Virtual time spent on synthetic health probes since
    /// `begin_timing`. Probes ride whichever pushdown triggered the probe
    /// driver; a serving tier subtracts the per-call delta so background
    /// probing never inflates a victim session's observed latency.
    pub fn probe_credit(&self) -> SimDuration {
        self.ledger.probe_credit
    }

    /// The rack's gray-failure monitor, if the installed fault plan armed
    /// it (it carries fail-slow specs).
    pub fn health(&self) -> Option<&ddc_os::HealthMonitor> {
        self.dos.health()
    }

    /// Run one integrity-scrubber pass immediately, regardless of the
    /// configured schedule. Returns `(pages_scanned, mismatches_detected)`.
    /// Enables the integrity plane if it was off.
    pub fn scrub_now(&mut self) -> (u64, u64) {
        self.dos.scrub_pass()
    }

    /// Pages declared unrecoverable (no intact copy anywhere) since
    /// `begin_timing`.
    pub fn data_loss(&self) -> u64 {
        self.dos.data_loss_count()
    }

    /// The pool epoch each failover promoted *to*, in order. Deterministic
    /// for a given seed + config: two runs of the same scenario produce the
    /// same sequence.
    pub fn failover_epochs(&self) -> &[u64] {
        self.dos.failover_epochs()
    }

    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Restarts still scheduled (crashed shards whose `down_for` window
    /// has not elapsed yet).
    pub fn pending_restarts(&self) -> usize {
        self.dos.pending_restarts()
    }

    /// One fabric message of `bytes` payload, charged to virtual time.
    fn wire(&mut self, class: MsgClass, bytes: usize) {
        let d = self.dos.fabric().send(class, bytes);
        self.dos.charge(d);
    }

    /// The compute side's `try_cancel` (§3.2): one control message, then
    /// the pool's answer checked against the only outcome the protocol
    /// allows at this point (`Cancelled` while the request is still queued,
    /// `Declined` once it ran). Any other answer means the workqueue
    /// protocol is broken: what the pool actually did is traced, and the
    /// caller gets a typed violation instead of a routine error it might
    /// back off and retry on.
    fn cancel_expecting(&mut self, req: u64, want: CancelOutcome) -> Result<(), PushdownError> {
        self.wire(MsgClass::Control, 16);
        let event = match self.server.try_cancel(req) {
            got if got == want => return Ok(()),
            CancelOutcome::Cancelled => TraceEvent::Cancel { req },
            CancelOutcome::Declined => TraceEvent::CancelDeclined { req },
        };
        self.dos.tracer().emit(Lane::Memory, event);
        Err(PushdownError::ProtocolViolation { req })
    }

    /// Run pushdown `call`'s function `f` on an arm over `session` (the
    /// memory side) or none (the compute side), unless the fault plan
    /// replaces it: an injected exception surfaces as if the function
    /// panicked, and a hang burns past the kill timeout so the watchdog
    /// fires. Injected disruptions apply on every platform, so a chaos
    /// scenario is comparable across Local/BaseDdc/Teleport.
    fn run_or_disrupt<R>(
        &mut self,
        call: u64,
        session: Option<&mut PushdownSession>,
        f: impl FnOnce(&mut Arm<'_>) -> R,
    ) -> std::thread::Result<R> {
        let disruption = self
            .dos
            .injector()
            .and_then(|i| i.pushdown_disruption(call));
        match disruption {
            Some(PushdownDisruption::Exception) => {
                Err(Box::new("injected fault: pushdown exception".to_string()))
            }
            Some(PushdownDisruption::Hang) => {
                self.dos
                    .charge(self.tcfg.kill_timeout + SimDuration::from_nanos(1));
                Err(Box::new("injected fault: pushdown hang".to_string()))
            }
            None => {
                let mut arm = Arm { rt: self, session };
                catch_unwind(AssertUnwindSafe(|| f(&mut arm)))
            }
        }
    }

    /// The one verdict every pushdown ends with, on every platform.
    /// Unrepairable corruption during the call trumps every other outcome:
    /// the bytes the function read (or the caller would read back) are
    /// gone, so no value computed from them may escape — and a function
    /// that crashed *because* it consumed them surfaces the root cause.
    /// Then a function that ran past the kill timeout was killed, then its
    /// exception, and last the deadline budget: the side effects stand,
    /// only the caller-visible outcome turns into a typed SLO miss.
    fn verdict<R>(
        &mut self,
        result: std::thread::Result<R>,
        ran_for: SimDuration,
        call: &Call,
    ) -> Result<R, PushdownError> {
        if self.dos.data_loss_count() > call.loss_before {
            let page = self.dos.last_data_loss().map_or(0, |p| p.0);
            return Err(PushdownError::DataLoss { page });
        }
        if ran_for > self.tcfg.kill_timeout {
            return Err(PushdownError::Killed { ran_for });
        }
        let value = result.map_err(|p| PushdownError::Exception(panic_message(p)))?;
        self.judge_deadline(call)?;
        Ok(value)
    }

    fn emit_recovery(&self, action: RecoveryAction, attempt: u32) {
        self.dos
            .tracer()
            .emit(Lane::Compute, TraceEvent::Recovery { action, attempt });
    }

    /// The `syncmem` syscall (§4.2): flush dirty compute pages to the
    /// memory pool and reconcile any stale compute views (stale pages are
    /// invalidated so the next read fetches fresh data). Returns pages
    /// flushed.
    pub fn syncmem(&mut self) -> usize {
        let flushed = self.dos.syncmem();
        // BTreeMap keys walk in sorted order, so eviction order is
        // seed-stable without an explicit sort.
        let stale: Vec<PageId> = self.stale.keys().copied().collect();
        for pid in stale {
            self.dos.coherence_evict(pid);
        }
        self.stale.clear();
        flushed
    }

    /// `syncmem` restricted to `[addr, addr+len)`.
    pub fn syncmem_range(&mut self, addr: VAddr, len: usize) -> usize {
        let flushed = self.dos.syncmem_range(addr, len);
        for pid in pages_spanned(addr, len) {
            if self.stale.remove(&pid).is_some() {
                self.dos.coherence_evict(pid);
            }
        }
        flushed
    }

    /// The compute view of `[addr, addr+len)` while disabled-coherence
    /// pushdowns have left snapshots behind (`stale` is empty, and neither
    /// this nor [`mirror_into_stale`] reached, in every other mode).
    fn read_past_stale(&mut self, addr: VAddr, len: usize) -> &[u8] {
        if !pages_spanned(addr, len).any(|p| self.stale.contains_key(&p)) {
            return self.dos.space().bytes(addr, len);
        }
        self.scratch.clear();
        for (pid, off, n) in page_chunks(addr, len) {
            let page = match self.stale.get(&pid) {
                Some(snap) => snap,
                None => self.dos.space().page_view(pid),
            };
            self.scratch.extend_from_slice(&page[off..off + n]);
        }
        &self.scratch
    }

    /// Run `f` on the compute pool regardless of platform — the path taken
    /// by operators the planner decides *not* to push down.
    pub fn run_local<R>(&mut self, f: impl FnOnce(&mut Arm<'_>) -> R) -> R {
        f(&mut Arm {
            rt: self,
            session: None,
        })
    }

    /// `pushdown` with a manual pre-synchronization hint (§4.2): when the
    /// caller already knows which ranges the pushed function will touch,
    /// a preemptive `syncmem` flushes their dirty pages and downgrades the
    /// compute copies to read-only, so the function starts with clean
    /// `(R, R)` state instead of paying coherence round trips on demand.
    pub fn pushdown_with_hint<R>(
        &mut self,
        opts: PushdownOpts,
        will_touch: &[(VAddr, usize)],
        f: impl FnOnce(&mut Arm<'_>) -> R,
    ) -> Result<R, PushdownError> {
        if self.kind == PlatformKind::Teleport {
            for &(addr, len) in will_touch {
                self.dos.syncmem_range(addr, len);
                for pid in pages_spanned(addr, len) {
                    self.dos.coherence_downgrade(pid);
                }
            }
        }
        self.pushdown(opts, f)
    }

    /// The `pushdown(fn, arg, flags)` syscall (§3). On the Teleport
    /// platform the function executes in the memory pool with the full
    /// request lifecycle; on Local/BaseDdc it runs compute-side unchanged,
    /// which is exactly how un-TELEPORTed binaries behave.
    ///
    /// # Examples
    ///
    /// ```
    /// use teleport::{Mem, PushdownOpts, Runtime};
    /// use ddc_os::Pattern;
    ///
    /// let mut rt = Runtime::teleport(ddc_sim::DdcConfig::default());
    /// let cell = rt.alloc_region::<u64>(1);
    /// rt.set(&cell, 0, 41, Pattern::Rand);
    /// let answer = rt
    ///     .pushdown(PushdownOpts::new(), |m| m.get(&cell, 0, Pattern::Rand) + 1)
    ///     .unwrap();
    /// assert_eq!(answer, 42);
    /// ```
    pub fn pushdown<R>(
        &mut self,
        opts: PushdownOpts,
        f: impl FnOnce(&mut Arm<'_>) -> R,
    ) -> Result<R, PushdownError> {
        let mut call = self.enter(opts)?;
        self.run(&mut call, f)
    }

    /// The entry step of every pushdown, on every platform, and the only
    /// reader of the call counter: a dead runtime answers its kernel panic
    /// here, and a live one takes the call's loss baseline, runs a due
    /// scrub, and numbers the call.
    #[inline]
    fn enter(&mut self, opts: PushdownOpts) -> Result<Call, PushdownError> {
        if !self.alive {
            return Err(PushdownError::KernelPanic);
        }
        // The deadline budget covers the call end to end from this entry:
        // heartbeat waits, queueing, execution, and fan-out settlement all
        // spend it.
        let entered = self.dos.clock().now();
        // Any unrepairable corruption observed while this call runs poisons
        // its result: the caller gets a typed loss, never a wrong answer.
        // The baseline is taken before the scheduled scrub so a loss the
        // scrub discovers poisons this call too.
        let loss_before = self.dos.data_loss_count();
        // Background scrubbing rides on the virtual clock: if the
        // configured interval elapsed since the last pass, run one before
        // this call touches any data.
        self.dos.scrub_if_due();
        let idx = self.ledger.fault_call_idx;
        self.ledger.fault_call_idx += 1;
        Ok(Call {
            idx,
            opts,
            entered,
            loss_before,
            req: None,
        })
    }

    /// Run an entered call to its verdict: compute-side on Local/BaseDdc,
    /// the full request lifecycle on Teleport.
    fn run<R>(
        &mut self,
        call: &mut Call,
        f: impl FnOnce(&mut Arm<'_>) -> R,
    ) -> Result<R, PushdownError> {
        let opts = call.opts;
        if self.kind != PlatformKind::Teleport {
            // The function runs compute-side, watched by an application
            // watchdog with the kernel's conservative timeout.
            let t0 = self.dos.clock().now();
            let result = self.run_or_disrupt(call.idx, None, f);
            let ran_for = self.dos.clock().now().since(t0);
            return self.verdict(result, ran_for, call);
        }
        self.pushdown_gate()?;

        self.ledger.pushdown_calls += 1;
        let mut bd = Breakdown::default();

        // ❶ Pre-pushdown synchronization.
        let call_start = self.dos.clock().now();
        let t0 = call_start;
        self.dos
            .tracer()
            .emit(Lane::Compute, TraceEvent::PushdownStep { step: 1 });
        // Strawman eager sync: flush + drop everything up front, remembering
        // what to re-fetch at ❽; the list it then ships is empty.
        let refetch = match opts.sync {
            SyncStrategy::Eager => self.dos.flush_and_clear_cache(),
            SyncStrategy::OnDemand => Vec::new(),
        };
        // The cache's own page-indexed view, shared with it: nothing is
        // collected, sorted or copied here.
        let resident = self.dos.resident_view();
        if opts.sync == SyncStrategy::OnDemand {
            let cycles = self.tcfg.cycles_per_list_entry * resident.len as u64;
            let cost = self.memo.list_scan.cost(cycles, || self.dos.compute_cpu());
            self.dos.charge(cost);
        }
        bd.pre_sync = self.dos.clock().now().since(t0);

        // ❷ Request transfer (RLE'd resident list rides along).
        let t0 = self.dos.clock().now();
        self.dos
            .tracer()
            .emit(Lane::Net, TraceEvent::PushdownStep { step: 2 });
        // One wire run per run of the table: its RLE size, not encoded.
        self.wire(
            MsgClass::RpcRequest,
            REQUEST_HEADER_BYTES + resident.runs * RUN_WIRE_BYTES,
        );
        // ❸ Enqueue on the memory-side workqueue; wake an instance.
        self.dos
            .tracer()
            .emit(Lane::Memory, TraceEvent::PushdownStep { step: 3 });
        let (req_id, wake) = self.server.enqueue();
        self.dos.charge(wake);
        bd.request = self.dos.clock().now().since(t0);

        // An injected backlog burst materializes as other tenants' work
        // already sitting in the workqueue when this request arrives.
        if let Some(burst) = self.dos.injector().and_then(|i| i.queue_burst()) {
            self.queue_backlog = self.queue_backlog.max(burst);
        }
        // Admission control: the memory kernel inspects queue depth and the
        // estimated backlog *before* accepting the request. A shed request
        // is bounced with a small control message and never queues — the
        // caller sees a typed rejection it can back off on.
        if let Some(pol) = self.admission {
            let waiting = self.server.queue_depth().saturating_sub(1);
            if !pol.admits(waiting, self.queue_backlog) {
                let backlog = self.queue_backlog;
                self.dos.tracer().emit(
                    Lane::Memory,
                    TraceEvent::AdmissionShed {
                        backlog_ns: backlog.as_nanos(),
                    },
                );
                // A shed request has never been dequeued, so the cancel
                // must succeed.
                self.cancel_expecting(req_id, CancelOutcome::Cancelled)?;
                return Err(PushdownError::Rejected { backlog });
            }
        }
        // Queue wait: other tenants' requests run first. If the caller's
        // timeout elapses while still queued, try_cancel succeeds (§3.2)
        // and the application may run the function locally instead.
        if self.queue_backlog > SimDuration::ZERO {
            if let Some(timeout) = opts.timeout.filter(|&t| t < self.queue_backlog) {
                self.dos.charge(timeout);
                self.dos
                    .tracer()
                    .emit(Lane::Compute, TraceEvent::Timeout { req: req_id });
                // Still queued behind the backlog, so the cancel must
                // succeed; a decline would mean the request started
                // executing while we believed it was waiting.
                self.cancel_expecting(req_id, CancelOutcome::Cancelled)?;
                self.dos
                    .tracer()
                    .emit(Lane::Memory, TraceEvent::Cancel { req: req_id });
                return Err(PushdownError::CancelledBeforeStart);
            }
            let wait = self.queue_backlog;
            self.dos.charge(wait);
            self.queue_backlog = SimDuration::ZERO;
        }

        // ❹ Temporary user-context setup (Fig 8).
        let t0 = self.dos.clock().now();
        self.dos
            .tracer()
            .emit(Lane::Memory, TraceEvent::PushdownStep { step: 4 });
        let _ = self.server.dequeue();
        call.req = Some(req_id);
        self.dos.charge(self.tcfg.ctx_create);
        let total_pages = self.dos.space().allocated_pages() as u64;
        let mem_cpu = self.dos.ddc_config().memory_cpu;
        let cycles = self.tcfg.cycles_per_pte_clone * total_pages;
        let cost = self.memo.pte_clone.cost(cycles, || mem_cpu);
        self.dos.charge(cost);
        if opts.sync == SyncStrategy::OnDemand {
            let cycles = self.tcfg.cycles_per_pte_check * resident.len as u64;
            let cost = self.memo.pte_check.cost(cycles, || mem_cpu);
            self.dos.charge(cost);
        }
        bd.ctx_setup = self.dos.clock().now().since(t0);

        // ❺ Execute the function in the temporary context.
        let t0 = self.dos.clock().now();
        self.dos
            .tracer()
            .emit(Lane::Memory, TraceEvent::PushdownStep { step: 5 });
        // Open the routing window: memory-side accesses record which
        // shards they land on (free on single-pool deployments).
        self.dos.begin_pushdown_routing();
        let mut session = PushdownSession::over_shipped(
            opts.coherence,
            resident.table,
            self.tcfg.backoff_t,
            self.tcfg.tiebreak,
        );
        let result = self.run_or_disrupt(call.idx, Some(&mut session), f);
        let exec_window = self.dos.clock().now().since(t0);
        // ❻ Completion. Any end-of-session synchronization (Weak
        // Ordering's batched invalidation) is charged here and attributed
        // to online_sync so the breakdown's total matches the wall time
        // between steps ❶ and ❽.
        self.dos
            .tracer()
            .emit(Lane::Memory, TraceEvent::PushdownStep { step: 6 });
        let t_finish = self.dos.clock().now();
        let (cstats, online_sync, stale) = session.finish(&mut self.dos);
        let finish_sync = self.dos.clock().now().since(t_finish);
        // A page this runtime already holds stale keeps its older snapshot:
        // the session snapshotted the pool's bytes, which the compute has
        // not seen yet.
        if !stale.is_empty() {
            for (pid, snap) in stale {
                self.stale.entry(pid).or_insert(snap);
            }
        }
        self.ledger.coherence.note(cstats);
        bd.online_sync = online_sync + finish_sync;
        bd.exec = exec_window.saturating_sub(online_sync);

        // The other half of the §3.2 cancellation race: the caller's
        // timeout elapsed while the function was already executing. The
        // compute side issues try_cancel anyway, the memory pool declines
        // (the request left the queue long ago), and the application waits
        // for the completion it was going to get regardless.
        if opts
            .timeout
            .is_some_and(|t| self.dos.clock().now().since(call_start) > t)
        {
            self.dos
                .tracer()
                .emit(Lane::Compute, TraceEvent::Timeout { req: req_id });
            // The function already ran to completion, so the pool must
            // decline; a successful cancel here would discard a result
            // the application is about to receive.
            self.cancel_expecting(req_id, CancelOutcome::Declined)?;
            self.dos
                .tracer()
                .emit(Lane::Memory, TraceEvent::CancelDeclined { req: req_id });
        }

        // ❼ Response transfer, after settling any cross-shard fan-out.
        let t0 = self.dos.clock().now();
        let primary_pool = self.settle_fanout();
        self.dos
            .tracer()
            .emit(Lane::Net, TraceEvent::PushdownStep { step: 7 });
        self.server.complete(req_id);
        self.wire(MsgClass::RpcResponse, RESPONSE_BYTES);
        bd.response = self.dos.clock().now().since(t0);

        // Gray-failure detection signal: this call's memory-side execution
        // window, attributed to its primary shard. A degraded shard's
        // recursion into slow DRAM shows up here.
        self.dos.observe_service(primary_pool, exec_window);

        // ❽ Post-pushdown synchronization.
        let t0 = self.dos.clock().now();
        if opts.sync == SyncStrategy::Eager {
            self.dos.prefetch_pages(&refetch);
        }
        // On-demand: dirty bits merge into the full table locally — free.
        self.dos
            .tracer()
            .emit(Lane::Compute, TraceEvent::PushdownStep { step: 8 });
        bd.post_sync = self.dos.clock().now().since(t0);

        self.ledger.breakdown.note(bd);
        self.verdict(result, exec_window, call)
    }

    /// The gate every Teleport pushdown passes before step ❶: the
    /// kernel's liveness gate (scheduled restarts, the crash poll, the
    /// heartbeat round), then the health tick. A lost shard is the typed
    /// outcome of the rack changing under the call: a crash fenced its
    /// write (at-most-once holds, and a retry reaches the new epoch), a
    /// heartbeat death failed it over, or a death with no backup is a
    /// kernel panic.
    fn pushdown_gate(&mut self) -> Result<(), PushdownError> {
        self.dos.pool_gate().map_err(|loss| match loss {
            PoolLoss::Fenced { stale_epoch } => PushdownError::Fenced { stale_epoch },
            PoolLoss::FailedOver { lost_epoch } => PushdownError::PoolFailedOver { lost_epoch },
            PoolLoss::Dead => {
                self.alive = false;
                PushdownError::KernelPanic
            }
        })?;
        // Gray-failure plane (a no-op unless armed). Probing is the health
        // plane's background work; it rides this call's charge-out but
        // must not bill the victim session on a serving tier's slot
        // timeline.
        self.ledger.probe_credit += self.dos.health_tick();
        Ok(())
    }

    /// Settle a multi-pool call's fan-out before its response ships: the
    /// call is attributed to its primary shard (returned; shard 0 on a
    /// single-pool rack), each extra shard it spanned pays a per-shard
    /// sub-call (request header, an instance wake, a context clone) and
    /// ships its sub-result back, and the sub-results merge in pool-index
    /// order — a deterministic merge independent of sub-call completion
    /// order, since every charge lands on the one virtual clock in this
    /// fixed sequence.
    fn settle_fanout(&mut self) -> usize {
        if self.dos.pool_count() <= 1 {
            return 0;
        }
        let RoutingWindow {
            primary,
            pools,
            pages,
        } = self.dos.end_pushdown_routing();
        self.dos.tracer().emit(
            Lane::Memory,
            TraceEvent::PoolRouted {
                pool: primary as u64,
                pages,
            },
        );
        if pools > 1 {
            self.dos
                .tracer()
                .emit(Lane::Memory, TraceEvent::PushdownFanout { pools, pages });
            for _ in 1..pools {
                self.wire(MsgClass::RpcRequest, REQUEST_HEADER_BYTES);
                self.dos.charge(self.tcfg.wakeup);
                self.dos.charge(self.tcfg.ctx_create);
            }
            for _ in 1..pools {
                self.wire(MsgClass::RpcResponse, RESPONSE_BYTES);
            }
            self.dos
                .tracer()
                .emit(Lane::Memory, TraceEvent::FanoutMerge { pools });
        }
        primary
    }

    /// Judge a completed call against its deadline budget, measured from
    /// its entry. Emits [`TraceEvent::DeadlineExceeded`] and surfaces the
    /// typed error on a miss; a call without a deadline always passes.
    fn judge_deadline(&mut self, call: &Call) -> Result<(), PushdownError> {
        let Some(deadline) = call.opts.deadline else {
            return Ok(());
        };
        let took = self.dos.clock().now().since(call.entered);
        if took <= deadline {
            return Ok(());
        }
        let over = took.saturating_sub(deadline);
        self.dos.tracer().emit(
            Lane::Compute,
            TraceEvent::DeadlineExceeded {
                call: call.idx,
                over_ns: over.as_nanos(),
            },
        );
        Err(PushdownError::DeadlineExceeded { over })
    }

    /// `pushdown` under a [`ResiliencePolicy`] (§3.2: a failed or
    /// cancelled pushdown leaves the application "free to run the function
    /// locally or retry" — this is that freedom as a declarative policy).
    ///
    /// Each [recoverable](PushdownError::recoverable) failure but `Killed`
    /// charges an exponential backoff to virtual time and re-pushes; once
    /// retries are exhausted (or not configured), a recoverable failure
    /// under `fallback` runs a full `syncmem` — so the compute pool
    /// observes everything earlier attempts may have written memory-side —
    /// and re-executes via [`run_local`](Self::run_local). Any other
    /// failure, a [`PushdownError::KernelPanic`] first, surfaces as is.
    ///
    /// Every decision is emitted as a [`TraceEvent::Recovery`] and counted
    /// in [`metrics`](Self::metrics) under `resilience.*`.
    pub fn pushdown_resilient<R>(
        &mut self,
        opts: PushdownOpts,
        policy: &ResiliencePolicy,
        mut f: impl FnMut(&mut Arm<'_>) -> R,
    ) -> Result<Recovered<R>, PushdownError> {
        let mut attempts: u32 = 0;
        let mut backoff_spent = SimDuration::ZERO;
        let start = self.dos.clock().now();
        loop {
            // The deadline is a budget for the *whole* resilient call:
            // each attempt sees only what the earlier attempts (and their
            // backoffs) left unspent, so the per-attempt budget shrinks
            // monotonically toward zero.
            let mut attempt_opts = opts;
            if let Some(total) = opts.deadline {
                let spent = self.dos.clock().now().since(start);
                attempt_opts.deadline = Some(total.saturating_sub(spent));
            }
            let mut call = self.enter(attempt_opts)?;
            let err = match self.run(&mut call, &mut f) {
                Ok(value) => {
                    if attempts > 0 {
                        self.emit_recovery(RecoveryAction::RetrySuccess, attempts);
                    }
                    return Ok(Recovered {
                        value,
                        attempts,
                        via: ExecutionVia::Pushdown,
                    });
                }
                Err(e) => e,
            };
            if let Some(retry) = &policy.retry {
                // A killed function is not re-pushed: one the kernel had to
                // kill once will likely hang again.
                let killed = matches!(err, PushdownError::Killed { .. });
                if attempts < retry.max_retries && err.recoverable() && !killed {
                    let delay = retry.backoff(attempts);
                    let affordable = retry.budget.is_none_or(|b| backoff_spent + delay <= b);
                    if affordable {
                        attempts += 1;
                        self.ledger.resilience_retries += 1;
                        self.emit_recovery(RecoveryAction::RetryBackoff, attempts);
                        self.dos.charge(delay);
                        backoff_spent += delay;
                        continue;
                    }
                }
            }
            if policy.fallback && err.recoverable() {
                self.ledger.resilience_fallbacks += 1;
                self.emit_recovery(RecoveryAction::LocalFallback, attempts);
                // Hygiene first: flush dirty compute pages and reconcile
                // stale views, so the local re-execution reads whatever
                // state earlier attempts left in the memory pool. (A
                // monolithic server has no remote pool to reconcile with.)
                if self.kind != PlatformKind::Local {
                    self.syncmem();
                }
                let value = self.run_local(&mut f);
                // The fallback run still answers to the caller's budget:
                // a local re-execution that lands past the total deadline
                // is a miss like any other.
                self.judge_deadline(&Call {
                    opts,
                    entered: start,
                    ..call
                })?;
                return Ok(Recovered {
                    value,
                    attempts,
                    via: ExecutionVia::LocalFallback,
                });
            }
            return Err(err);
        }
    }

    /// `pushdown` with a hedge against fail-slow pools: if the primary
    /// call takes longer than the policy's (jittered, seed-deterministic)
    /// hedge delay, a clone of the function runs on the compute pool and
    /// the caller takes whichever leg finishes first in the modeled race.
    ///
    /// The simulator is sequential, so both legs' costs are charged to the
    /// wall clock — hedging is not free, and [`metrics`](Self::metrics)
    /// bills it honestly under `hedge.*`. What the *caller* observed is
    /// the race: [`Hedged::latency`], `delay + clone` if the hedge wins,
    /// which is the figure a serving tier's tail percentiles are built
    /// from. A winning hedge cancels the primary's request via
    /// `try_cancel` if that request ran; the completed primary correctly
    /// [`CancelOutcome::Declined`]s, which the protocol plane treats as
    /// the expected outcome (anything else is a violation).
    ///
    /// Only hedge calls whose function is idempotent: both legs may run to
    /// completion. On `Local`/`BaseDdc` platforms (and on a kernel panic,
    /// where no clone can help) the hedge never fires.
    pub fn pushdown_hedged<R>(
        &mut self,
        opts: PushdownOpts,
        policy: &HedgePolicy,
        mut f: impl FnMut(&mut Arm<'_>) -> R,
    ) -> Result<Hedged<R>, PushdownError> {
        let t0 = self.dos.clock().now();
        let mut call = self.enter(opts)?;
        let primary = self.run(&mut call, &mut f);
        let d_primary = self.dos.clock().now().since(t0);
        let seed = self.dos.injector().map_or(0, FaultInjector::seed);
        let fire_at = policy.fire_after(seed, call.idx);
        let fired = self.kind == PlatformKind::Teleport
            && d_primary > fire_at
            && !matches!(primary, Err(PushdownError::KernelPanic));
        if !fired {
            return primary.map(|value| Hedged {
                value,
                outcome: HedgeOutcome::NotFired,
                latency: d_primary,
            });
        }
        self.dos
            .tracer()
            .emit(Lane::Compute, TraceEvent::HedgeFired { call: call.idx });
        let t1 = self.dos.clock().now();
        let value = self.run_local(&mut f);
        let d_clone = self.dos.clock().now().since(t1);
        // In the modeled race the clone started at the hedge delay, not at
        // the primary's completion — the sequential charge-out above is
        // bookkeeping, not the race's timeline.
        let clone_done = fire_at + d_clone;
        let hedge_wins = match &primary {
            Ok(_) => clone_done < d_primary,
            // A blown deadline is recoverable by the hedge only if the
            // clone itself would have landed inside the budget.
            Err(PushdownError::DeadlineExceeded { .. }) => {
                opts.deadline.is_none_or(|d| clone_done <= d)
            }
            Err(e) => e.recoverable() && opts.deadline.is_none_or(|d| clone_done <= d),
        };
        if !hedge_wins {
            // The clone's charge-out was pure overhead to this caller: the
            // race completed when the primary did.
            self.ledger.hedge_credit += self.dos.clock().now().since(t0).saturating_sub(d_primary);
            return primary.map(|value| Hedged {
                value,
                outcome: HedgeOutcome::PrimaryWon,
                latency: d_primary,
            });
        }
        self.dos
            .tracer()
            .emit(Lane::Compute, TraceEvent::HedgeWon { call: call.idx });
        // Cancel the losing leg if a request of it ran. It already ran to
        // completion in virtual time, so the pool must decline — a
        // `Cancelled` here would mean the workqueue forgot a completed
        // request.
        if let Some(req) = call.req {
            self.cancel_expecting(req, CancelOutcome::Declined)?;
            self.dos
                .tracer()
                .emit(Lane::Memory, TraceEvent::CancelDeclined { req });
        }
        // The clone is the leg that answered.
        let latency = clone_done;
        self.ledger.hedge_credit += self.dos.clock().now().since(t0).saturating_sub(latency);
        Ok(Hedged {
            value,
            outcome: HedgeOutcome::HedgeWon,
            latency,
        })
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

impl Mem for Runtime {
    fn alloc(&mut self, bytes: usize) -> VAddr {
        self.dos.alloc(bytes)
    }

    #[inline]
    fn read_raw(&mut self, addr: VAddr, len: usize, pat: Pattern) -> &[u8] {
        self.dos.touch_range(addr, len, false, pat);
        if !self.stale.is_empty() {
            return self.read_past_stale(addr, len);
        }
        self.dos.space().bytes(addr, len)
    }

    fn write_with(&mut self, addr: VAddr, len: usize, pat: Pattern, fill: impl FnOnce(&mut [u8])) {
        self.dos.touch_range(addr, len, true, pat);
        fill(self.dos.space_mut().bytes_mut(addr, len));
        if !self.stale.is_empty() {
            mirror_into_stale(&mut self.stale, &self.dos, addr, len);
        }
    }

    #[inline]
    fn charge_cycles(&mut self, cycles: u64) {
        let cost = self
            .memo
            .compute_charge
            .cost(cycles, || self.dos.compute_cpu());
        self.dos.charge(cost);
    }

    fn now(&self) -> SimTime {
        self.dos.clock().now()
    }

    fn read_file(&mut self, file: ddc_os::FileId, offset: usize, len: usize) -> &[u8] {
        self.dos.file_read(file, offset, len, false)
    }

    fn append_file(&mut self, file: ddc_os::FileId, data: &[u8]) {
        self.dos.file_append(file, data, false);
    }

    fn alloc_unwritten(&mut self, bytes: usize) -> Unwritten {
        Unwritten(self.dos.alloc_for_overwrite(bytes))
    }

    fn zero_unwritten(&mut self, at: Unwritten, from: usize) {
        self.dos.zero_from(at.0, from);
    }

    /// Stale snapshots make a read's bytes depend on its page, so while any
    /// exist a run is read element by element.
    #[inline]
    fn reread(
        &mut self,
        addr: VAddr,
        len: usize,
        elem: usize,
        pat: Pattern,
        hits: u64,
    ) -> Option<&[u8]> {
        let charged = self.stale.is_empty() && self.dos.repeat_reads(addr.page(), elem, pat, hits);
        charged.then(|| self.dos.space().bytes(addr, len))
    }

    fn host_span<T: Scalar>(&self, r: &Region<T>) -> HostSpan {
        self.dos.space().host_span(r.addr, r.byte_len())
    }

    /// Stale snapshots make a read's bytes depend on its page, so while any
    /// exist nothing batches.
    fn hit_batch<R>(
        &mut self,
        spans: &[(VAddr, usize)],
        f: impl FnOnce(&mut HitBatch<'_>) -> R,
    ) -> Option<R> {
        if !self.stale.is_empty() || !self.dos.hits_only(spans) {
            return None;
        }
        let memo = self.memo.compute_charge.clone();
        let mut batch = HitBatch::new(self.dos.space(), spans, memo, self.dos.compute_cpu());
        let out = f(&mut batch);
        let (touched, reads, cycles) = batch.bill();
        self.dos.settle_hits(&touched, reads, cycles);
        Some(out)
    }
}
