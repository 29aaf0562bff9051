//! The process's virtual address space and its backing bytes.
//!
//! In a real DDC the page *contents* live in whichever pool currently holds
//! the page. The simulation keeps a single authoritative copy of every byte
//! here and lets residency state (cache / pool / storage) drive only *cost*.
//! This is sound for all coherent executions because the protocol enforces
//! single-writer-multiple-reader; deliberately incoherent executions (the
//! paper's disabled-coherence mode) layer a divergence store on top, in the
//! `teleport` crate.

use std::cell::RefCell;
use std::collections::BTreeMap;

use ddc_sim::PAGE_SIZE;

use crate::page::{PageId, PageTable, VAddr};
use crate::work;

thread_local! {
    /// The segment buffers of the space this thread dropped last, by length
    /// in bytes ("Backing lifetime" on [`AddressSpace`]).
    static SPARE: RefCell<BTreeMap<usize, Vec<Vec<u8>>>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// `bytes` of backing for a new segment: a spare buffer of exactly that
/// length if the thread holds one, and a fresh one if not. The first request
/// the spare set cannot serve releases all of it. A spare buffer holds what
/// its last owner left in it; `zeroed` makes it read zero again.
fn backing(bytes: usize, zeroed: bool) -> Vec<u8> {
    let spare = SPARE.try_with(|spare| {
        let mut spare = spare.borrow_mut();
        let buf = spare.get_mut(&bytes).and_then(Vec::pop);
        if buf.is_none() {
            spare.clear();
        }
        buf
    });
    match spare {
        Ok(Some(mut buf)) => {
            work::count(|w| w.recycled_backings += 1);
            if zeroed {
                zero_pages(&mut buf);
            }
            buf
        }
        // Nothing spare of this length, or the thread is past its teardown.
        _ => {
            work::count(|w| w.fresh_backings += 1);
            vec![0u8; bytes]
        }
    }
}

/// Zero every page of a recycled buffer — the padding past a short
/// allocation's length too, since `page_view` exposes it — writing runs of
/// pages that hold something and only reading the ones that already read
/// zero. A page its last owner never wrote is one the host never backed, and
/// storing zeros over it would make it resident: a 640 MB segment written on
/// one page in sixteen stays 40 MB of host memory however often it is reused.
fn zero_pages(buf: &mut [u8]) {
    let mut at = 0;
    let mut zeroed = 0;
    while at < buf.len() {
        let dirty = buf[at..]
            .chunks_exact(PAGE_SIZE)
            .take_while(|page| **page != [0u8; PAGE_SIZE])
            .count()
            * PAGE_SIZE;
        buf[at..at + dirty].fill(0);
        zeroed += dirty;
        // The page that ended the run reads zero already.
        at += dirty + PAGE_SIZE;
    }
    work::count(|w| w.bytes_zeroed += zeroed as u64);
}

/// One contiguous allocation, page-aligned and padded to whole pages.
#[derive(Debug)]
struct Segment {
    start: VAddr,
    /// Requested length in bytes (what the application may touch).
    len: usize,
    data: Vec<u8>,
}

impl Segment {
    #[inline]
    fn contains(&self, addr: VAddr) -> bool {
        addr >= self.start && (addr.0 - self.start.0) < self.len as u64
    }
}

/// A growable, bump-allocated virtual address space.
///
/// Allocations are page-aligned and separated by one unmapped guard page, so
/// any out-of-bounds access panics instead of silently reading a neighboring
/// allocation.
///
/// **Lookup cost.** Every access resolves its address in O(1): one read of a
/// page → segment table, then the segment's own bounds check — the same work
/// whether one allocation is live or ten thousand (allocations are never
/// freed, so a long run only ever gains segments). The table is the seventh
/// structure on [`PageTable`]'s density invariant: 4 bytes a simulated page.
///
/// **Invariant the index relies on.** `alloc` is the only place a segment or
/// a table entry is created, and it writes the new segment's index at exactly
/// the pages the segment backs. So page 0, every guard page and every page
/// past the last allocation read `NO_SEGMENT`, and an entry that names a
/// segment names the one whose page range holds that page. The byte-level
/// check (`Segment::contains`) still runs on every lookup: it is what
/// refuses the tail of a short last page.
///
/// **Backing lifetime.** A simulation builds a rack, fills it, drops it and
/// builds the next one of the same shape — per platform, per iteration, per
/// matrix cell — and memory fresh from the host OS costs a page fault at the
/// first touch of every page, several times what zeroing a mapped page does.
/// So when a space is dropped its segment buffers become the *spare backing*
/// of the thread that dropped it, and `alloc` takes a spare buffer of exactly
/// the padded length it needs, zeroes it and uses it in place of a fresh one.
/// Nothing a simulation can observe depends on which it got: the bytes read
/// zero, and addresses, guard pages and the index are as ever.
/// [`alloc_for_overwrite`](Self::alloc_for_overwrite) takes a spare buffer
/// the same way but does not zero it, for a caller about to write every byte
/// anyway; it zeroes what it leaves unwritten with
/// [`zero_from`](Self::zero_from) before it lets anything read the
/// allocation. What is kept, and for how long, follows from two rules and no
/// setting:
///
/// * *A drop replaces the spare set.* It never holds more than the buffers of
///   the one space that died last on this thread; those of the space before
///   it are freed then.
/// * *The first request the spare set cannot serve releases all of it.* A
///   differently shaped rack is being built, and from there on the space
///   allocates from the OS, as if nothing had been kept.
///
/// The set is per thread (spaces are not shared, and a thread's spare is freed
/// when it exits); a space dropped while its thread is tearing down its
/// thread-locals frees its buffers directly.
#[derive(Debug)]
pub struct AddressSpace {
    segments: Vec<Segment>,
    /// The segment backing each page, as an index into `segments`.
    index: PageTable<u32>,
    next_page: u64,
    /// Pages across all segments, kept as a running count.
    allocated_pages: usize,
}

/// What the index reads for a page no segment backs. Never a real index:
/// `alloc` refuses to create segment number `u32::MAX`.
const NO_SEGMENT: u32 = u32::MAX;

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    pub fn new() -> Self {
        AddressSpace {
            segments: Vec::new(),
            index: PageTable::new(NO_SEGMENT),
            // Page 0 is never mapped: VAddr::NULL stays invalid.
            next_page: 1,
            allocated_pages: 0,
        }
    }

    /// Allocate `bytes` of zeroed memory. Returns the starting address.
    pub fn alloc(&mut self, bytes: usize) -> VAddr {
        self.map(bytes, true)
    }

    /// Allocate `bytes` whose contents are unspecified: a recycled buffer
    /// keeps what the space that dropped it left there, padding included.
    /// The caller must write every byte, or zero the rest with
    /// [`zero_from`](Self::zero_from), before anything reads the allocation.
    pub fn alloc_for_overwrite(&mut self, bytes: usize) -> VAddr {
        self.map(bytes, false)
    }

    fn map(&mut self, bytes: usize, zeroed: bool) -> VAddr {
        assert!(bytes > 0, "zero-sized allocation");
        let pages = bytes.div_ceil(PAGE_SIZE);
        let Some(padded) = pages.checked_mul(PAGE_SIZE) else {
            panic!("allocation of {bytes} bytes overflows when padded to whole pages")
        };
        let first = PageId(self.next_page);
        let start = first.base();
        assert!(
            self.segments.len() < NO_SEGMENT as usize,
            "the segment index holds segment numbers below u32::MAX"
        );
        let idx = self.segments.len() as u32;
        for p in 0..pages as u64 {
            *self.index.entry(first.offset(p)) = idx;
        }
        // +1 leaves an unmapped guard page after the allocation.
        self.next_page += pages as u64 + 1;
        self.allocated_pages += pages;
        self.segments.push(Segment {
            start,
            len: bytes,
            data: backing(padded, zeroed),
        });
        start
    }

    /// Number of pages across all allocations (guard pages excluded).
    pub fn allocated_pages(&self) -> usize {
        self.allocated_pages
    }

    /// True if `addr` lies within some allocation.
    pub fn is_mapped(&self, addr: VAddr) -> bool {
        self.find(addr).is_some()
    }

    /// The pages of the allocation starting at `start`.
    pub fn pages_of(&self, start: VAddr) -> impl Iterator<Item = PageId> + '_ {
        let seg = &self.segments[self.starting_at(start)];
        let first = seg.start.page().0;
        let count = (seg.data.len() / PAGE_SIZE) as u64;
        (first..first + count).map(PageId)
    }

    /// Zero the allocation starting at `start` from byte `from` to the end
    /// of its last page, padding included: the rest of the page `from`
    /// falls in if it holds anything, then each whole page after it that
    /// does ([`alloc`](Self::alloc)'s rule for a recycled buffer, so a page
    /// that already reads zero is read, not written).
    pub fn zero_from(&mut self, start: VAddr, from: usize) {
        let idx = self.starting_at(start);
        let seg = &mut self.segments[idx];
        assert!(
            from <= seg.len,
            "zero_from {from} past the allocation's {} bytes",
            seg.len
        );
        let (partial, pages) =
            seg.data[from..].split_at_mut(from.next_multiple_of(PAGE_SIZE) - from);
        if partial.iter().any(|&b| b != 0) {
            partial.fill(0);
            work::count(|w| w.bytes_zeroed += partial.len() as u64);
        }
        zero_pages(pages);
    }

    /// The index of the segment that starts at `start`.
    fn starting_at(&self, start: VAddr) -> usize {
        self.find(start)
            .filter(|&idx| self.segments[idx].start == start)
            .expect("not an allocation start")
    }

    /// The segment holding `addr`, if any: one table read, then the
    /// segment's own bounds check. [`NO_SEGMENT`] indexes past `segments`,
    /// so a vacant page fails the same `get` a stale index would.
    #[inline]
    fn find(&self, addr: VAddr) -> Option<usize> {
        let idx = self.index.get(addr.page()) as usize;
        let seg = self.segments.get(idx)?;
        seg.contains(addr).then_some(idx)
    }

    /// Segment and offset of a `len`-byte access at `addr`. The two refusals
    /// are out of line so that an inlined access carries two branches, not
    /// two formatted panics.
    #[inline]
    fn locate(&self, addr: VAddr, len: usize) -> (usize, usize) {
        let Some(idx) = self.find(addr) else {
            unmapped(addr)
        };
        let seg = &self.segments[idx];
        let off = (addr.0 - seg.start.0) as usize;
        if off + len > seg.len {
            overrun(addr, len, seg.len)
        }
        (idx, off)
    }

    /// Copy `dst.len()` bytes starting at `addr` into `dst`.
    #[inline]
    pub fn read(&self, addr: VAddr, dst: &mut [u8]) {
        dst.copy_from_slice(self.bytes(addr, dst.len()));
    }

    /// Copy `src` into the allocation at `addr`.
    #[inline]
    pub fn write(&mut self, addr: VAddr, src: &[u8]) {
        self.bytes_mut(addr, src.len()).copy_from_slice(src);
    }

    /// Borrow `len` bytes at `addr` without copying. The span must lie
    /// within a single allocation.
    #[inline]
    pub fn bytes(&self, addr: VAddr, len: usize) -> &[u8] {
        let (idx, off) = self.locate(addr, len);
        &self.segments[idx].data[off..off + len]
    }

    /// The full 4 KB backing of one page, including the padding beyond a
    /// short allocation's requested length. Panics if the page is unmapped.
    /// Used by the coherence layer, which snapshots whole pages.
    pub fn page_view(&self, page: PageId) -> &[u8] {
        let base = page.base();
        let idx = self
            .find(base)
            .unwrap_or_else(|| panic!("page_view of unmapped {page}"));
        let seg = &self.segments[idx];
        let off = (base.0 - seg.start.0) as usize;
        &seg.data[off..off + PAGE_SIZE]
    }

    /// The mutable counterpart of [`page_view`](Self::page_view). Used by
    /// the integrity plane, which applies and reverts byte-level corruption
    /// of whole page images.
    pub fn page_view_mut(&mut self, page: PageId) -> &mut [u8] {
        let base = page.base();
        let idx = self
            .find(base)
            .unwrap_or_else(|| panic!("page_view_mut of unmapped {page}"));
        let seg = &mut self.segments[idx];
        let off = (base.0 - seg.start.0) as usize;
        &mut seg.data[off..off + PAGE_SIZE]
    }

    /// Every mapped page, in address order (guard pages excluded). The
    /// scrubber walks this list.
    pub fn mapped_pages(&self) -> Vec<PageId> {
        let mut pages = Vec::with_capacity(self.allocated_pages());
        for seg in &self.segments {
            let first = seg.start.page().0;
            let count = (seg.data.len() / PAGE_SIZE) as u64;
            pages.extend((first..first + count).map(PageId));
        }
        pages
    }

    /// Mutably borrow `len` bytes at `addr` without copying.
    #[inline]
    pub fn bytes_mut(&mut self, addr: VAddr, len: usize) -> &mut [u8] {
        let (idx, off) = self.locate(addr, len);
        &mut self.segments[idx].data[off..off + len]
    }

    /// A host-only handle on the `len` bytes at `start`, which must lie
    /// within one allocation: the backing is resolved here, once, so that
    /// each [`HostSpan::prefetch`] after it costs no lookup.
    pub fn host_span(&self, start: VAddr, len: usize) -> HostSpan {
        let (idx, off) = self.locate(start, len);
        HostSpan {
            base: self.segments[idx].data[off..].as_ptr(),
            len,
        }
    }

    /// Ask the host CPU to cache the line holding `addr`, for an access
    /// whose simulated bookkeeping is about to run first (a
    /// [`HostSpan::prefetch`] of one byte; a hint, invisible to the model).
    /// An address no allocation holds — a guard page, a short allocation's
    /// padding, `VAddr::NULL` — is ignored: the access that follows is the
    /// one that refuses it.
    #[inline]
    pub fn prefetch(&self, addr: VAddr) {
        if let Some(idx) = self.find(addr) {
            let seg = &self.segments[idx];
            let span = HostSpan {
                base: seg.data.as_ptr(),
                len: seg.len,
            };
            span.prefetch((addr.0 - seg.start.0) as usize);
        }
    }

    pub fn read_u64(&self, addr: VAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    pub fn write_u64(&mut self, addr: VAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }
}

/// A span of an allocation's host backing, for cache hints only.
///
/// A hint is invisible to the simulation: it charges no virtual time,
/// records no trace event, touches no page cache, counts no work and reads
/// nothing the program sees. What it buys is host speed, when a caller
/// knows which bytes its next accesses will land on — a hash index's slot
/// some keys ahead — and can have the host's memory fetch them while the
/// simulator's bookkeeping for the current access runs.
#[derive(Debug, Clone, Copy)]
pub struct HostSpan {
    base: *const u8,
    len: usize,
}

impl HostSpan {
    /// Ask the host CPU to bring the cache line holding byte `byte_off` of
    /// the span into its caches. A no-op past the span's end, and on
    /// targets other than x86-64.
    #[inline]
    pub fn prefetch(&self, byte_off: usize) {
        if byte_off >= self.len {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        // SAFETY: a prefetch reads nothing into the program and never
        // faults, whatever the address; the one computed here is inside
        // the span, which `host_span` resolved within one allocation.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(self.base.wrapping_add(byte_off).cast());
        }
    }
}

/// The dead space's buffers replace the thread's spare set, so the set never
/// holds more than one space's worth. `try_with`: a space dropped while the
/// thread tears its locals down frees its buffers the ordinary way.
impl Drop for AddressSpace {
    fn drop(&mut self) {
        let mut dead: BTreeMap<usize, Vec<Vec<u8>>> = BTreeMap::new();
        for seg in self.segments.drain(..) {
            dead.entry(seg.data.len()).or_default().push(seg.data);
        }
        let _ = SPARE.try_with(|spare| spare.replace(dead));
    }
}

#[cold]
#[inline(never)]
fn unmapped(addr: VAddr) -> ! {
    panic!("unmapped access at {addr}")
}

#[cold]
#[inline(never)]
fn overrun(addr: VAddr, len: usize, seg_len: usize) -> ! {
    panic!("access of {len} bytes at {addr} overruns allocation (len {seg_len})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl AddressSpace {
        /// The lookup the page → segment index replaced, kept as the
        /// reference model: segments are created in address order, so a
        /// binary search over their starts finds the only candidate.
        fn find_by_search(&self, addr: VAddr) -> Option<usize> {
            let idx = self
                .segments
                .partition_point(|s| s.start.0 <= addr.0)
                .checked_sub(1)?;
            self.segments[idx].contains(addr).then_some(idx)
        }
    }

    /// Allocate `sizes` in order and compare the index against the search
    /// at every page from 0 to one past the last guard — first and last
    /// byte of the page and both sides of where a short last page ends —
    /// then past the end of the table and of the address range.
    fn assert_index_matches_search(sizes: &[usize]) {
        let mut space = AddressSpace::new();
        for &bytes in sizes {
            space.alloc(bytes);
        }
        // Where some allocation's last page stops being backed: that offset
        // and the byte before it, tried on every page.
        let edges = sizes.iter().map(|b| (b % PAGE_SIZE) as u64);
        let offsets: Vec<u64> = [0, 1, PAGE_SIZE as u64 - 1]
            .into_iter()
            .chain(edges.clone())
            .chain(edges.map(|e| e.saturating_sub(1)))
            .collect();
        let mut mapped = 0;
        for page in 0..=space.next_page {
            for &off in &offsets {
                let addr = PageId(page).base().offset(off);
                let expect = space.find_by_search(addr);
                assert_eq!(space.find(addr), expect, "page {page} offset {off}");
                assert_eq!(space.is_mapped(addr), expect.is_some());
            }
            mapped += usize::from(space.is_mapped(PageId(page).base()));
        }
        assert_eq!(mapped, space.allocated_pages(), "every mapped page seen");
        for seg in &space.segments {
            let end = seg.start.offset(seg.len as u64);
            assert_eq!(space.find(end), None, "one past {} bytes", seg.len);
            assert!(space.find(VAddr(end.0 - 1)).is_some(), "the last byte");
        }
        let past_table = PageId(PageTable::<u32>::MAX_PAGES).base();
        for addr in [past_table, VAddr(u64::MAX), VAddr(u64::MAX - 7)] {
            assert_eq!(space.find(addr), None);
            assert_eq!(space.find_by_search(addr), None);
        }
    }

    #[test]
    fn index_matches_the_search_it_replaced() {
        assert_index_matches_search(&[]);
        assert_index_matches_search(&[1]);
        assert_index_matches_search(&[PAGE_SIZE]);
        assert_index_matches_search(&[
            1,
            10,
            PAGE_SIZE - 1,
            PAGE_SIZE,
            PAGE_SIZE + 1,
            3 * PAGE_SIZE,
            5 * PAGE_SIZE + 17,
            1,
        ]);
        // Enough one-page segments to grow the table twice.
        assert_index_matches_search(&[8; 100]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random allocation sizes — one byte, non-page multiples, several
        /// pages — resolve through the table exactly as through the search.
        #[test]
        fn index_matches_search_for_random_allocations(
            sizes in prop::collection::vec(
                prop_oneof![Just(1usize), 1usize..PAGE_SIZE, 1usize..6 * PAGE_SIZE],
                1..24,
            )
        ) {
            assert_index_matches_search(&sizes);
        }
    }

    /// Bytes the thread's spare set holds.
    fn spare_bytes() -> usize {
        SPARE.with(|spare| spare.borrow().values().flatten().map(Vec::len).sum())
    }

    fn backing_bytes(space: &AddressSpace) -> usize {
        space.segments.iter().map(|s| s.data.len()).sum()
    }

    fn buffers(space: &AddressSpace) -> Vec<*const u8> {
        space.segments.iter().map(|s| s.data.as_ptr()).collect()
    }

    fn space_of(sizes: &[usize]) -> AddressSpace {
        let mut space = AddressSpace::new();
        for &bytes in sizes {
            space.alloc(bytes);
        }
        space
    }

    #[test]
    fn recycled_backing_is_the_dead_spaces_and_reads_zero() {
        let sizes = [
            1,
            10,
            PAGE_SIZE - 1,
            PAGE_SIZE,
            PAGE_SIZE + 1,
            3 * PAGE_SIZE,
            3 * PAGE_SIZE - 5,
            5 * PAGE_SIZE + 17,
            1,
        ];
        let mut dead = space_of(&sizes);
        // Every byte of every page, the padding past `len` included.
        for page in dead.mapped_pages() {
            dead.page_view_mut(page).fill(0xFF);
        }
        let owned = buffers(&dead);
        drop(dead);

        let mut shuffled = sizes;
        shuffled.reverse();
        shuffled.rotate_left(4);
        let next = space_of(&shuffled);
        assert_eq!(spare_bytes(), 0, "every spare buffer was taken");
        let mut taken = buffers(&next);
        for buf in &taken {
            assert!(owned.contains(buf), "a buffer the dead space owned");
        }
        taken.sort_unstable();
        taken.dedup();
        assert_eq!(taken.len(), sizes.len(), "each buffer handed out once");
        for page in next.mapped_pages() {
            assert!(
                next.page_view(page).iter().all(|&b| b == 0),
                "{page} of a recycled segment is not zeroed"
            );
        }
    }

    /// Every pattern of written and untouched pages over eight, the written
    /// ones marked by their last byte alone: runs of every length at every
    /// place, the first and the last page included.
    #[test]
    fn zero_pages_clears_every_run_of_written_pages() {
        for written in 0u32..256 {
            let mut buf = vec![0u8; 8 * PAGE_SIZE];
            for page in (0..8).filter(|p| written >> p & 1 == 1) {
                buf[(page + 1) * PAGE_SIZE - 1] = 1;
            }
            zero_pages(&mut buf);
            assert!(buf.iter().all(|&b| b == 0), "pattern {written:#010b}");
        }
    }

    #[test]
    fn spaces_alive_together_never_share_a_buffer() {
        drop(space_of(&[2 * PAGE_SIZE, 2 * PAGE_SIZE]));
        let (mut a, mut b) = (AddressSpace::new(), AddressSpace::new());
        // One spare buffer each, then one neither can have recycled.
        let (a1, b1) = (a.alloc(2 * PAGE_SIZE), b.alloc(2 * PAGE_SIZE));
        let (a2, b2) = (a.alloc(2 * PAGE_SIZE), b.alloc(2 * PAGE_SIZE));
        let mut all = buffers(&a);
        all.extend(buffers(&b));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4, "four live segments, four buffers");
        for (space, first, second, v) in [(&mut a, a1, a2, 7u64), (&mut b, b1, b2, 9)] {
            space.write_u64(first, v);
            space.write_u64(second, v + 1);
        }
        assert_eq!((a.read_u64(a1), a.read_u64(a2)), (7, 8));
        assert_eq!((b.read_u64(b1), b.read_u64(b2)), (9, 10));
        // The one that dies last is the one kept.
        let (of_a, of_b) = (backing_bytes(&a), backing_bytes(&b));
        drop(a);
        assert_eq!(spare_bytes(), of_a);
        drop(b);
        assert_eq!(spare_bytes(), of_b);
    }

    /// A space that outlives its thread's spare set, and one that does not:
    /// thread-locals are torn down in an order the program does not choose,
    /// so the space is parked before the spare set is first used and after.
    #[test]
    fn a_space_dropped_at_thread_exit_frees_normally() {
        thread_local! {
            static PARKED: RefCell<Option<AddressSpace>> = const { RefCell::new(None) };
        }
        for park_first in [true, false] {
            let exited = std::thread::spawn(move || {
                if park_first {
                    PARKED.with(|p| *p.borrow_mut() = Some(AddressSpace::new()));
                }
                drop(space_of(&[PAGE_SIZE, 3 * PAGE_SIZE]));
                let space = space_of(&[3 * PAGE_SIZE, 8]);
                PARKED.with(|p| *p.borrow_mut() = Some(space));
            })
            .join();
            assert!(exited.is_ok(), "park_first = {park_first}");
        }
    }

    /// An allocation for overwrite takes a spare buffer as it is; `zero_from`
    /// then clears from any byte to the end of the last page, writing only
    /// what does not read zero already, and leaves the bytes before it.
    #[test]
    fn overwrite_backing_keeps_the_dead_bytes_until_zero_from_clears_the_rest() {
        let sizes = [3 * PAGE_SIZE - 5, PAGE_SIZE, 10];
        for from in [
            0,
            1,
            PAGE_SIZE - 1,
            PAGE_SIZE,
            PAGE_SIZE + 3,
            3 * PAGE_SIZE - 5,
        ] {
            let mut dead = space_of(&sizes);
            for page in dead.mapped_pages() {
                dead.page_view_mut(page).fill(0xFF);
            }
            // Leave the last page of the first segment reading zero.
            dead.page_view_mut(PageId(3)).fill(0);
            drop(dead);
            let before = work::work_counters();
            let mut next = AddressSpace::new();
            let at = next.alloc_for_overwrite(sizes[0]);
            let taken = work::work_counters().delta_since(&before);
            assert_eq!((taken.recycled_backings, taken.fresh_backings), (1, 0));
            assert_eq!(next.bytes(at, 1), [0xFF], "not zeroed at allocation");
            next.zero_from(at, from);
            let mut image = vec![0xFF; 2 * PAGE_SIZE];
            image.resize(3 * PAGE_SIZE, 0);
            image[from..].fill(0);
            assert!(
                next.segments[0].data == image,
                "from {from}: kept before, zero after"
            );
            let written = (2 * PAGE_SIZE).saturating_sub(from) as u64;
            let zeroed = work::work_counters().delta_since(&before).bytes_zeroed;
            assert_eq!(
                zeroed, written,
                "from {from}: the zero page is read, not written"
            );
        }
    }

    #[test]
    fn fresh_backing_is_counted_and_never_rewritten() {
        drop(AddressSpace::new());
        let before = work::work_counters();
        let mut space = AddressSpace::new();
        let at = space.alloc_for_overwrite(2 * PAGE_SIZE + 1);
        space.zero_from(at, 7);
        let d = work::work_counters().delta_since(&before);
        assert_eq!(
            (d.fresh_backings, d.recycled_backings, d.bytes_zeroed),
            (1, 0, 0)
        );
    }

    #[test]
    #[should_panic(expected = "past the allocation")]
    fn zero_from_refuses_an_offset_past_the_allocation() {
        let mut space = AddressSpace::new();
        let at = space.alloc(10);
        space.zero_from(at, 11);
    }

    /// A prefetch reads nothing the program sees, and one past the span's
    /// end — the padding of its last page included — is dropped.
    #[test]
    fn host_span_prefetches_change_nothing_and_stop_at_the_end() {
        let mut space = AddressSpace::new();
        let len = 3 * PAGE_SIZE + 5;
        let at = space.alloc(len);
        space.write_u64(at.offset(8), 0xfeed);
        let span = space.host_span(at, len);
        let before = work::work_counters();
        for off in [0, 8, PAGE_SIZE, len - 1, len, len + PAGE_SIZE, usize::MAX] {
            span.prefetch(off);
        }
        assert_eq!(space.read_u64(at.offset(8)), 0xfeed);
        assert_eq!(work::work_counters(), before);
    }

    /// An address hint reads nothing the program sees and refuses nothing:
    /// a short allocation's first and last byte and its padding, a guard
    /// page, the null address, past the last segment and the top of the
    /// address range.
    #[test]
    fn prefetch_hints_change_nothing() {
        let mut space = AddressSpace::new();
        let short = space.alloc(10);
        let next = space.alloc(2 * PAGE_SIZE);
        space.write_u64(short, 0xfeed);
        space.write_u64(next.offset(PAGE_SIZE as u64), 0xbeef);
        let image: Vec<Vec<u8>> = space.segments.iter().map(|s| s.data.clone()).collect();
        let guard = next.offset(2 * PAGE_SIZE as u64);
        let past = PageId(space.next_page + 3).base();
        let before = work::work_counters();
        for addr in [
            short,
            short.offset(9),
            short.offset(10),
            short.offset(PAGE_SIZE as u64 - 1),
            guard,
            VAddr::NULL,
            past,
            VAddr(u64::MAX),
        ] {
            space.prefetch(addr);
        }
        assert_eq!(work::work_counters(), before);
        let after: Vec<Vec<u8>> = space.segments.iter().map(|s| s.data.clone()).collect();
        assert!(after == image, "the backing bytes are unchanged");
        assert_eq!(space.read_u64(short), 0xfeed);
    }

    #[test]
    #[should_panic(expected = "overruns allocation")]
    fn host_span_refuses_a_span_past_the_allocation() {
        let mut space = AddressSpace::new();
        let at = space.alloc(10);
        space.host_span(at, 11);
    }

    #[test]
    #[should_panic(expected = "overflows when padded to whole pages")]
    fn alloc_refuses_a_size_that_wraps_when_padded() {
        AddressSpace::new().alloc(usize::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Three generations of spaces with random segment sizes, against a
        /// multiset of spare lengths: a request takes one of exactly its
        /// padded length or empties the set, and a drop leaves exactly the
        /// dead space's backing — whatever the set held before.
        #[test]
        fn spare_set_is_the_last_dead_space_until_the_first_miss(
            generations in prop::collection::vec(
                prop::collection::vec(
                    prop_oneof![Just(1usize), 1usize..PAGE_SIZE, 1usize..6 * PAGE_SIZE],
                    1..12,
                ),
                3..4,
            )
        ) {
            // The previous case's last space is still spare; an empty one
            // dying replaces it with nothing.
            drop(AddressSpace::new());
            let mut model: Vec<usize> = Vec::new();
            for sizes in &generations {
                let mut space = AddressSpace::new();
                for &bytes in sizes {
                    let padded = bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE;
                    match model.iter().position(|&spare| spare == padded) {
                        Some(hit) => drop(model.swap_remove(hit)),
                        None => model.clear(),
                    }
                    let at = space.alloc(bytes);
                    prop_assert_eq!(spare_bytes(), model.iter().sum::<usize>());
                    prop_assert!(space.page_view(at.page()).iter().all(|&b| b == 0));
                    space.page_view_mut(at.page()).fill(0xA5);
                }
                model = space.segments.iter().map(|s| s.data.len()).collect();
                drop(space);
                prop_assert_eq!(spare_bytes(), model.iter().sum::<usize>());
            }
        }
    }

    #[test]
    fn alloc_is_page_aligned_with_guard_gaps() {
        let mut space = AddressSpace::new();
        let a = space.alloc(10);
        let b = space.alloc(PAGE_SIZE * 2);
        assert_eq!(a.page_offset(), 0);
        assert_eq!(b.page_offset(), 0);
        // 10 bytes round to 1 page, +1 guard page.
        assert_eq!(b.page().0, a.page().0 + 2);
        assert_eq!(space.allocated_pages(), 3);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut space = AddressSpace::new();
        let a = space.alloc(64);
        space.write_u64(a, 0xdeadbeef);
        assert_eq!(space.read_u64(a), 0xdeadbeef);
        assert_eq!(space.read_u64(a.offset(24)), 0, "fresh memory is zeroed");
    }

    #[test]
    fn bulk_read_write() {
        let mut space = AddressSpace::new();
        let a = space.alloc(PAGE_SIZE * 3);
        let src: Vec<u8> = (0..PAGE_SIZE * 2).map(|i| (i % 251) as u8).collect();
        space.write(a.offset(100), &src);
        let mut dst = vec![0u8; src.len()];
        space.read(a.offset(100), &mut dst);
        assert_eq!(src, dst);
        assert_eq!(space.bytes(a.offset(100), 16), &src[..16]);
    }

    #[test]
    #[should_panic(expected = "unmapped access at 0x7b")]
    fn unmapped_access_panics() {
        let space = AddressSpace::new();
        space.read_u64(VAddr(123));
    }

    #[test]
    #[should_panic(expected = "access of 32 bytes at 0x1000 overruns allocation (len 16)")]
    fn overrun_panics() {
        let mut space = AddressSpace::new();
        let a = space.alloc(16);
        let mut buf = [0u8; 32];
        space.read(a, &mut buf);
    }

    #[test]
    #[should_panic(expected = "unmapped access")]
    fn guard_page_is_unmapped() {
        let mut space = AddressSpace::new();
        let a = space.alloc(PAGE_SIZE);
        let _b = space.alloc(PAGE_SIZE);
        // One byte past the end of `a` lands in the guard page.
        space.read_u64(a.offset(PAGE_SIZE as u64));
    }

    #[test]
    fn pages_of_lists_allocation_pages() {
        let mut space = AddressSpace::new();
        let a = space.alloc(PAGE_SIZE * 2 + 1);
        let pages: Vec<_> = space.pages_of(a).collect();
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[0], a.page());
        // Found by address, whichever allocation it is.
        let b = space.alloc(1);
        assert_eq!(space.pages_of(b).collect::<Vec<_>>(), [b.page()]);
        assert_eq!(space.pages_of(a).count(), 3);
        assert_eq!(space.allocated_pages(), 4);
    }

    #[test]
    #[should_panic(expected = "not an allocation start")]
    fn pages_of_rejects_an_interior_address() {
        let mut space = AddressSpace::new();
        let a = space.alloc(PAGE_SIZE * 2);
        let _ = space.pages_of(a.offset(PAGE_SIZE as u64));
    }

    #[test]
    fn mapped_pages_walks_all_segments_in_address_order() {
        let mut space = AddressSpace::new();
        let a = space.alloc(PAGE_SIZE * 2);
        let b = space.alloc(1);
        let pages = space.mapped_pages();
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[0], a.page());
        assert_eq!(pages[2], b.page());
        assert!(pages.windows(2).all(|w| w[0] < w[1]), "address order");
    }

    #[test]
    fn page_view_mut_mutates_the_authoritative_bytes() {
        let mut space = AddressSpace::new();
        let a = space.alloc(16);
        space.write_u64(a, 7);
        space.page_view_mut(a.page())[0] ^= 0xff;
        assert_eq!(space.read_u64(a), 7 ^ 0xff);
        assert_eq!(space.page_view(a.page()).len(), PAGE_SIZE);
    }
}
