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

use crate::page::{PageId, VAddr};

/// One contiguous allocation, page-aligned and padded to whole pages.
#[derive(Debug)]
struct Segment {
    start: VAddr,
    /// Requested length in bytes (what the application may touch).
    len: usize,
    data: Vec<u8>,
}

impl Segment {
    fn contains(&self, addr: VAddr) -> bool {
        addr >= self.start && (addr.0 - self.start.0) < self.len as u64
    }
}

/// A growable, bump-allocated virtual address space.
///
/// Allocations are page-aligned and separated by one unmapped guard page, so
/// any out-of-bounds access panics instead of silently reading a neighboring
/// allocation.
#[derive(Debug, Default)]
pub struct AddressSpace {
    segments: Vec<Segment>,
    next_page: u64,
    /// Pages across all segments, kept as a running count.
    allocated_pages: usize,
}

impl AddressSpace {
    pub fn new() -> Self {
        AddressSpace {
            segments: Vec::new(),
            // Page 0 is never mapped: VAddr::NULL stays invalid.
            next_page: 1,
            allocated_pages: 0,
        }
    }

    /// Allocate `bytes` of zeroed memory. Returns the starting address.
    pub fn alloc(&mut self, bytes: usize) -> VAddr {
        assert!(bytes > 0, "zero-sized allocation");
        let pages = bytes.div_ceil(PAGE_SIZE);
        let start = PageId(self.next_page).base();
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

    fn find(&self, addr: VAddr) -> Option<usize> {
        // Segments are created in address order, so binary search applies.
        let idx = self
            .segments
            .partition_point(|s| s.start.0 <= addr.0)
            .checked_sub(1)?;
        self.segments[idx].contains(addr).then_some(idx)
    }

    fn locate(&self, addr: VAddr, len: usize) -> (usize, usize) {
        let idx = self
            .find(addr)
            .unwrap_or_else(|| panic!("unmapped access at {addr}"));
        let seg = &self.segments[idx];
        let off = (addr.0 - seg.start.0) as usize;
        assert!(
            off + len <= seg.len,
            "access of {len} bytes at {addr} overruns allocation (len {})",
            seg.len
        );
        (idx, off)
    }

    /// Copy `dst.len()` bytes starting at `addr` into `dst`.
    pub fn read(&self, addr: VAddr, dst: &mut [u8]) {
        let (idx, off) = self.locate(addr, dst.len());
        dst.copy_from_slice(&self.segments[idx].data[off..off + dst.len()]);
    }

    /// Copy `src` into the allocation at `addr`.
    pub fn write(&mut self, addr: VAddr, src: &[u8]) {
        let (idx, off) = self.locate(addr, src.len());
        self.segments[idx].data[off..off + src.len()].copy_from_slice(src);
    }

    /// Borrow `len` bytes at `addr` without copying. The span must lie
    /// within a single allocation.
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

#[cfg(test)]
mod tests {
    use super::*;

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
    #[should_panic(expected = "unmapped access")]
    fn unmapped_access_panics() {
        let space = AddressSpace::new();
        space.read_u64(VAddr(123));
    }

    #[test]
    #[should_panic(expected = "overruns allocation")]
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
