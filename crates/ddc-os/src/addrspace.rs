//! The process's virtual address space and its backing bytes.
//!
//! In a real DDC the page *contents* live in whichever pool currently holds
//! the page. The simulation keeps a single authoritative copy of every byte
//! here and lets residency state (cache / pool / storage) drive only *cost*.
//! This is sound for all coherent executions because the protocol enforces
//! single-writer-multiple-reader; deliberately incoherent executions (the
//! paper's disabled-coherence mode) layer a divergence store on top, in the
//! `teleport` crate.

use ddc_sim::PAGE_SIZE;

use crate::page::{PageId, PageTable, VAddr};

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
        assert!(bytes > 0, "zero-sized allocation");
        let pages = bytes.div_ceil(PAGE_SIZE);
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
            data: vec![0u8; pages * PAGE_SIZE],
        });
        start
    }

    /// Number of pages across all allocations (guard pages excluded).
    pub fn allocated_pages(&self) -> usize {
        self.allocated_pages
    }

    /// Total allocated bytes (as requested by callers).
    pub fn allocated_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// True if `addr` lies within some allocation.
    pub fn is_mapped(&self, addr: VAddr) -> bool {
        self.find(addr).is_some()
    }

    /// The pages of the allocation starting at `start`.
    pub fn pages_of(&self, start: VAddr) -> impl Iterator<Item = PageId> + '_ {
        let seg = self
            .find(start)
            .map(|idx| &self.segments[idx])
            .filter(|s| s.start == start)
            .expect("pages_of: not an allocation start");
        let first = seg.start.page().0;
        let count = (seg.data.len() / PAGE_SIZE) as u64;
        (first..first + count).map(PageId)
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

    pub fn read_u64(&self, addr: VAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    pub fn write_u64(&mut self, addr: VAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    pub fn read_i64(&self, addr: VAddr) -> i64 {
        self.read_u64(addr) as i64
    }

    pub fn write_i64(&mut self, addr: VAddr, v: i64) {
        self.write_u64(addr, v as u64);
    }

    pub fn read_f64(&self, addr: VAddr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    pub fn write_f64(&mut self, addr: VAddr, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    pub fn read_u32(&self, addr: VAddr) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    pub fn write_u32(&mut self, addr: VAddr, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }

    pub fn read_i32(&self, addr: VAddr) -> i32 {
        self.read_u32(addr) as i32
    }

    pub fn write_i32(&mut self, addr: VAddr, v: i32) {
        self.write_u32(addr, v as u32);
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
        assert_eq!(space.allocated_bytes(), 10 + PAGE_SIZE * 2);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut space = AddressSpace::new();
        let a = space.alloc(64);
        space.write_u64(a, 0xdeadbeef);
        space.write_f64(a.offset(8), 2.5);
        space.write_i32(a.offset(16), -7);
        assert_eq!(space.read_u64(a), 0xdeadbeef);
        assert_eq!(space.read_f64(a.offset(8)), 2.5);
        assert_eq!(space.read_i32(a.offset(16)), -7);
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
