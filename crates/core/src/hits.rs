//! Compute-side reads billed once a batch: [`HitBatch`], and [`RandReads`],
//! the accessor a read-only kernel is written against so that one body runs
//! through a batch or read by read.
//!
//! A compute-side read of a page resident in the compute cache, with no
//! plane checking hits, changes three things: its page's LRU place,
//! `cache_hits` and the integer clock. It records no trace event, counts no
//! work and polls no fault. A kernel that reads only such pages (a probe
//! into a hash index that stays cached) can therefore read their host bytes
//! straight, note which page each read landed on, and settle once:
//! [`Dos::settle_hits`](ddc_os::Dos::settle_hits) moves the read pages to
//! the LRU head in the order of their last reads — after a series of moves
//! to the front the order depends only on that — adds the reads to the
//! hits and advances the clock by their sum. The state left is the one the
//! read-by-read loop leaves.

use ddc_os::{pages_spanned, AddressSpace, PageId, VAddr};
use ddc_sim::{CpuConfig, SimDuration, PAGE_SIZE};

use crate::runtime::{CycleMemo, Mem, Region, Scalar};
use crate::Pattern;

/// Random-pattern reads and CPU charges: all a read-only kernel does to
/// simulated memory. Every [`Mem`] serves them read by read; a [`HitBatch`]
/// serves them from host bytes and bills them once.
pub trait RandReads {
    /// Element `i` of `r`, billed as [`Mem::get`] with [`Pattern::Rand`].
    fn read<T: Scalar>(&mut self, r: &Region<T>, i: usize) -> T;
    /// Charge CPU cycles at the side's clock rate, as
    /// [`Mem::charge_cycles`].
    fn bill_cycles(&mut self, cycles: u64);
}

impl<M: Mem> RandReads for M {
    #[inline]
    fn read<T: Scalar>(&mut self, r: &Region<T>, i: usize) -> T {
        self.get(r, i, Pattern::Rand)
    }

    #[inline]
    fn bill_cycles(&mut self, cycles: u64) {
        self.charge_cycles(cycles);
    }
}

/// One checked span's host bytes.
struct Span<'a> {
    start: u64,
    bytes: &'a [u8],
    /// The span's first page, and where its pages' entries start in the
    /// batch's `last`.
    first_page: u64,
    at: usize,
}

/// Compute-side reads of pages that every such read would hit, read from
/// their host bytes and billed once when the batch ends
/// ([`Mem::hit_batch`]).
pub struct HitBatch<'a> {
    spans: Vec<Span<'a>>,
    /// Each page of the spans with the ordinal of its last read (0: not
    /// read).
    last: Vec<(u64, PageId)>,
    reads: u64,
    /// The sum of what each [`RandReads::bill_cycles`] would have charged.
    cycles: SimDuration,
    memo: CycleMemo,
    cpu: CpuConfig,
}

impl<'a> HitBatch<'a> {
    /// A batch over `spans` of `space`, whose cycle charges are converted
    /// at `cpu`, starting from the handle's memo of its last conversion.
    pub(crate) fn new(
        space: &'a AddressSpace,
        spans: &[(VAddr, usize)],
        memo: CycleMemo,
        cpu: CpuConfig,
    ) -> Self {
        let mut last = Vec::new();
        let spans = spans
            .iter()
            .map(|&(start, len)| {
                let at = last.len();
                last.extend(pages_spanned(start, len).map(|p| (0, p)));
                Span {
                    start: start.0,
                    bytes: space.bytes(start, len),
                    first_page: start.page().0,
                    at,
                }
            })
            .collect();
        HitBatch {
            spans,
            last,
            reads: 0,
            cycles: SimDuration::ZERO,
            memo,
            cpu,
        }
    }

    /// The pages read, ordered by their last read, the number of reads, and
    /// the summed cycle charges: what [`Dos::settle_hits`] bills.
    ///
    /// [`Dos::settle_hits`]: ddc_os::Dos::settle_hits
    pub(crate) fn bill(mut self) -> (Vec<PageId>, u64, SimDuration) {
        self.last.retain(|&(n, _)| n > 0);
        self.last.sort_unstable();
        let order = self.last.into_iter().map(|(_, p)| p).collect();
        (order, self.reads, self.cycles)
    }
}

impl RandReads for HitBatch<'_> {
    /// The element's bytes from the host, the read's page noted as read
    /// last. A region's elements never straddle a page (regions start on
    /// one, and a [`Scalar`]'s size divides it), so a read is one page's.
    #[inline]
    fn read<T: Scalar>(&mut self, r: &Region<T>, i: usize) -> T {
        let addr = r.at(i).0;
        let Some(s) = self
            .spans
            .iter()
            .find(|s| addr.wrapping_sub(s.start) < s.bytes.len() as u64)
        else {
            outside(addr)
        };
        let off = (addr - s.start) as usize;
        self.reads += 1;
        self.last[s.at + (addr / PAGE_SIZE as u64 - s.first_page) as usize].0 = self.reads;
        T::decode(&s.bytes[off..off + T::BYTES])
    }

    #[inline]
    fn bill_cycles(&mut self, cycles: u64) {
        let cpu = self.cpu;
        self.cycles += self.memo.cost(cycles, || cpu);
    }
}

#[cold]
#[inline(never)]
fn outside(addr: u64) -> ! {
    panic!("hit batch read at {addr:#x} is outside its checked spans")
}
