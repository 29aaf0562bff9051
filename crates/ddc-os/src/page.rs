//! Virtual addresses, page identities, and page checksums.

use std::fmt;

use ddc_sim::{fnv1a, PAGE_SIZE};

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

/// The integrity checksum of one 4 KB page image: FNV-1a-64 over all
/// `PAGE_SIZE` backing bytes, sealed at write/registration time and
/// re-verified whenever the page crosses a pool boundary (fabric delivery,
/// SSD read) or a scrub pass reaches it. The same FNV helpers back the
/// trace-stream digest, so the two can never drift.
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
        PageChecksum(fnv1a(bytes))
    }

    /// Whether `bytes` still matches this sealed checksum.
    #[inline]
    pub fn matches(self, bytes: &[u8]) -> bool {
        fnv1a(bytes) == self.0
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
        for (addr, len) in [(a, 1), (a, 3), (a, 4), (VAddr(0), 3 * PAGE_SIZE)] {
            let pages: Vec<_> = page_chunks(addr, len).map(|(p, _, _)| p).collect();
            assert_eq!(pages, pages_spanned(addr, len).collect::<Vec<_>>());
            assert_eq!(page_chunks(addr, len).map(|c| c.2).sum::<usize>(), len);
        }
    }
}
