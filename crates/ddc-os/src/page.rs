//! Virtual addresses, page identities, and page checksums.

use std::fmt;

use ddc_sim::{page_seal, PAGE_SIZE};

/// A virtual address within a simulated process address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub u64);

/// The identity of one 4 KB virtual page (`vaddr >> 12`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(pub u64);

impl VAddr {
    pub const NULL: VAddr = VAddr(0);

    /// The page containing this address.
    #[inline]
    pub fn page(self) -> PageId {
        PageId(self.0 / PAGE_SIZE as u64)
    }

    /// Byte offset within the containing page.
    #[inline]
    pub fn page_offset(self) -> usize {
        (self.0 % PAGE_SIZE as u64) as usize
    }

    /// The address `bytes` later.
    #[inline]
    pub fn offset(self, bytes: u64) -> VAddr {
        VAddr(self.0 + bytes)
    }

    /// True if a `len`-byte object at this address fits in a single page.
    #[inline]
    pub fn fits_in_page(self, len: usize) -> bool {
        len == 0 || self.page() == self.offset(len as u64 - 1).page()
    }
}

impl PageId {
    /// The first address of this page.
    #[inline]
    pub fn base(self) -> VAddr {
        VAddr(self.0 * PAGE_SIZE as u64)
    }

    /// The page `n` pages later.
    #[inline]
    pub fn offset(self, n: u64) -> PageId {
        PageId(self.0 + n)
    }
}

/// A page table: per-page state in a flat `Vec` indexed by `PageId.0`.
///
/// Every slot starts out holding the `vacant` value the table was built
/// with, and a page past the end of the `Vec` reads as `vacant` too, so a
/// lookup never grows, allocates or panics. Only [`PageTable::entry`] grows
/// the table, by doubling.
///
/// **Density invariant.** [`AddressSpace`](crate::AddressSpace) hands page
/// ids out by bumping a counter from 1 and skips one guard page per
/// allocation, so a table covering every mapped page has at most
/// `allocated pages + allocations` slots (rounded up to a power of two):
/// direct indexing costs memory proportional to the address space, not to
/// the largest id a caller can name. [`MAX_PAGES`](Self::MAX_PAGES) turns a
/// write that breaks the invariant into a named panic.
#[derive(Debug, Clone)]
pub struct PageTable<T> {
    slots: Vec<T>,
    vacant: T,
}

impl<T: Copy> PageTable<T> {
    /// Writes at or past this page id are refused: 2^28 pages is 1 TB of
    /// simulated memory, far more than one host can back byte for byte.
    pub const MAX_PAGES: u64 = 1 << 28;

    /// An empty table whose every page reads as `vacant`.
    pub fn new(vacant: T) -> Self {
        PageTable {
            slots: Vec::new(),
            vacant,
        }
    }

    /// Slot of `page`; an id too wide for the host indexes past any table.
    #[inline]
    fn index(page: PageId) -> usize {
        usize::try_from(page.0).unwrap_or(usize::MAX)
    }

    /// The state of `page`; `vacant` if it was never written.
    #[inline]
    pub fn get(&self, page: PageId) -> T {
        match self.slots.get(Self::index(page)) {
            Some(&v) => v,
            None => self.vacant,
        }
    }

    /// Mutable state of `page` if the table already covers it (a covered
    /// page that was never written holds `vacant`). Never grows the table.
    #[inline]
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut T> {
        self.slots.get_mut(Self::index(page))
    }

    /// Mutable state of `page`, growing the table to cover it.
    #[inline]
    pub fn entry(&mut self, page: PageId) -> &mut T {
        let i = Self::index(page);
        if i >= self.slots.len() {
            self.grow(page);
        }
        &mut self.slots[i]
    }

    /// Every page the table covers and its state, in page order; a covered
    /// page that was never written reads `vacant`.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, T)> + '_ {
        (0..).map(PageId).zip(self.slots.iter().copied())
    }

    #[cold]
    fn grow(&mut self, page: PageId) {
        assert!(
            page.0 < Self::MAX_PAGES,
            "page table: {page} is past the {}-page limit; page ids are dense from 1",
            Self::MAX_PAGES
        );
        let len = (Self::index(page) + 1).next_power_of_two().max(64);
        self.slots.resize(len, self.vacant);
    }
}

impl<T: Copy + Default> Default for PageTable<T> {
    /// An empty table whose every page reads as `T::default()`.
    fn default() -> Self {
        PageTable::new(T::default())
    }
}

/// The integrity checksum of one 4 KB page image: [`ddc_sim::page_seal`]
/// over all `PAGE_SIZE` backing bytes, taken when injected corruption is
/// about to land on the page (over the bytes just before the edit) and
/// verified when the page then crosses a pool boundary (fabric delivery,
/// SSD read) or a scrub pass reaches it. The fabric and the SSD verify with
/// the same function, and a change confined to one byte — what the fault
/// plane injects — always changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PageChecksum(pub u64);

impl PageChecksum {
    /// Checksum a full page image. `bytes` must be exactly `PAGE_SIZE` long
    /// (the padded backing of the page, not just the requested length).
    #[inline]
    pub fn of(bytes: &[u8]) -> Self {
        // A short slice would seal a checksum that can never re-verify
        // against the full page image crossing a pool boundary, turning
        // every later integrity check into a false mismatch — guard it in
        // release builds too (the length compare is two words).
        assert_eq!(bytes.len(), PAGE_SIZE, "checksum over a partial page");
        PageChecksum(page_seal(bytes))
    }

    /// Whether `bytes` still matches this sealed checksum.
    #[inline]
    pub fn matches(self, bytes: &[u8]) -> bool {
        page_seal(bytes) == self.0
    }
}

impl fmt::Display for PageChecksum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Iterate the pages spanned by `[addr, addr + len)`. Zero-length spans
/// touch no page.
pub fn pages_spanned(addr: VAddr, len: usize) -> impl Iterator<Item = PageId> {
    let (first, last) = if len == 0 {
        (1, 0) // empty range
    } else {
        (addr.page().0, addr.offset(len as u64 - 1).page().0)
    };
    (first..=last).map(PageId)
}

/// Walk `[addr, addr + len)` one page at a time, yielding each page with
/// the byte offset the span starts at inside it and how many of the span's
/// bytes fall on it: `(page, offset_in_page, len_in_page)`. The lengths sum
/// to `len`; a zero-length span yields nothing.
pub fn page_chunks(addr: VAddr, len: usize) -> impl Iterator<Item = (PageId, usize, usize)> {
    let mut cursor = addr;
    let mut remaining = len;
    std::iter::from_fn(move || {
        if remaining == 0 {
            return None;
        }
        let off = cursor.page_offset();
        let n = (PAGE_SIZE - off).min(remaining);
        let chunk = (cursor.page(), off, n);
        cursor = cursor.offset(n as u64);
        remaining -= n;
        Some(chunk)
    })
}

/// Call `f(first, len_in_page)` for each page of `[addr, addr + len)`, as
/// [`page_chunks`] would yield them: the span's first byte on that page
/// (`first.page()` is the page) and how many of its bytes fall there. A
/// span inside one page — the 4- and 8-byte accessors are most calls —
/// skips the iterator.
#[inline]
pub(crate) fn for_each_page(addr: VAddr, len: usize, mut f: impl FnMut(VAddr, usize)) {
    if !addr.fits_in_page(len) {
        page_chunks(addr, len).for_each(|(page, off, n)| f(page.base().offset(off as u64), n));
    } else if len > 0 {
        f(addr, len);
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_page_math() {
        let a = VAddr(PAGE_SIZE as u64 * 3 + 17);
        assert_eq!(a.page(), PageId(3));
        assert_eq!(a.page_offset(), 17);
        assert_eq!(PageId(3).base(), VAddr(PAGE_SIZE as u64 * 3));
        assert_eq!(a.offset(5).0, a.0 + 5);
    }

    #[test]
    fn fits_in_page_boundaries() {
        let base = PageId(2).base();
        assert!(base.fits_in_page(PAGE_SIZE));
        assert!(!base.fits_in_page(PAGE_SIZE + 1));
        assert!(base.offset(PAGE_SIZE as u64 - 8).fits_in_page(8));
        assert!(!base.offset(PAGE_SIZE as u64 - 8).fits_in_page(9));
        assert!(base.fits_in_page(0));
    }

    #[test]
    fn page_table_reads_never_grow_and_writes_double() {
        let mut t = PageTable::new(7u32);
        assert_eq!(t.get(PageId(u64::MAX >> 12)), 7, "absent reads as vacant");
        assert!(t.get_mut(PageId(u64::MAX >> 12)).is_none());
        assert_eq!(t.slots.capacity(), 0, "reads allocate nothing");
        *t.entry(PageId(3)) = 1;
        assert_eq!(t.slots.len(), 64);
        *t.entry(PageId(100_000)) = 2;
        assert_eq!(t.slots.len(), 1 << 17, "grown to the next power of two");
        assert_eq!(t.get(PageId(3)), 1);
        assert_eq!(t.get(PageId(100_000)), 2);
        assert_eq!(t.get(PageId(99_999)), 7, "covered but never written");
        assert_eq!(t.get(PageId(1 << 17)), 7, "one past the end");
        let written: Vec<_> = t.iter().filter(|&(_, v)| v != 7).collect();
        assert_eq!(
            written,
            [(PageId(3), 1), (PageId(100_000), 2)],
            "in page order"
        );
        assert_eq!(t.iter().count(), 1 << 17, "every covered page");
    }

    #[test]
    #[should_panic(expected = "page table: pg268435456 is past the")]
    fn page_table_refuses_an_absurd_write_by_name() {
        let mut t = PageTable::new(false);
        *t.entry(PageId(PageTable::<bool>::MAX_PAGES)) = true;
    }

    #[test]
    fn page_checksum_seals_and_detects() {
        let mut img = vec![0u8; PAGE_SIZE];
        let sum = PageChecksum::of(&img);
        assert!(sum.matches(&img));
        img[17] ^= 0x40;
        assert!(!sum.matches(&img), "one flipped bit breaks the seal");
        img[17] ^= 0x40;
        assert!(sum.matches(&img), "XOR-ing the mask back restores it");
    }

    #[test]
    #[should_panic(expected = "checksum over a partial page")]
    fn page_checksum_refuses_a_partial_page() {
        let _ = PageChecksum::of(&[0u8; PAGE_SIZE - 1]);
    }

    #[test]
    fn pages_spanned_covers_partial_pages() {
        let a = VAddr(PAGE_SIZE as u64 - 1);
        let pages: Vec<_> = pages_spanned(a, 2).collect();
        assert_eq!(pages, vec![PageId(0), PageId(1)]);
        assert_eq!(pages_spanned(a, 0).count(), 0);
        assert_eq!(pages_spanned(VAddr(0), PAGE_SIZE).count(), 1);
        assert_eq!(pages_spanned(VAddr(0), PAGE_SIZE + 1).count(), 2);
    }

    #[test]
    fn page_chunks_split_a_span_at_page_boundaries() {
        let a = VAddr(PAGE_SIZE as u64 - 3);
        let chunks: Vec<_> = page_chunks(a, PAGE_SIZE + 10).collect();
        assert_eq!(
            chunks,
            vec![
                (PageId(0), PAGE_SIZE - 3, 3),
                (PageId(1), 0, PAGE_SIZE),
                (PageId(2), 0, 7),
            ]
        );
        assert_eq!(page_chunks(a, 0).count(), 0);
        for (addr, len) in [(a, 0), (a, 1), (a, 3), (a, 4), (VAddr(0), 3 * PAGE_SIZE)] {
            let pages: Vec<_> = page_chunks(addr, len).map(|(p, _, _)| p).collect();
            assert_eq!(pages, pages_spanned(addr, len).collect::<Vec<_>>());
            assert_eq!(page_chunks(addr, len).map(|c| c.2).sum::<usize>(), len);
            // The single-page fast path visits exactly what the iterator yields.
            let mut visited = Vec::new();
            for_each_page(addr, len, |at, n| visited.push((at, n)));
            let chunks: Vec<_> = page_chunks(addr, len)
                .map(|(p, off, n)| (p.base().offset(off as u64), n))
                .collect();
            assert_eq!(visited, chunks);
        }
    }
}
