//! Run-length encoding of resident-page lists.
//!
//! A pushdown request carries the list of pages resident in the compute
//! cache together with their write permissions, so the memory pool can build
//! the temporary context's page table (paper Fig 8). §6 notes that
//! run-length encoding this list yields a ~20× size reduction, letting the
//! whole request fit in a single RDMA message. This module implements that
//! codec with real, measured sizes.

use std::fmt;

use ddc_os::PageId;

/// A resident-page list handed to the encoder was not strictly sorted by
/// page id — a protocol violation, since the wire format (and the
/// temporary context's page-table build on the far side) depends on
/// sortedness. `at` is the index of the first out-of-order entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsortedResidentList {
    pub at: usize,
}

impl fmt::Display for UnsortedResidentList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "resident list not strictly sorted at entry {}", self.at)
    }
}

impl std::error::Error for UnsortedResidentList {}

/// One run of consecutive pages sharing a permission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub start: PageId,
    pub len: u32,
    pub writable: bool,
}

/// Wire size of one encoded run: 8-byte start + 4-byte length + 1-byte
/// permission.
pub const RUN_WIRE_BYTES: usize = 13;

/// Wire size of one uncompressed entry: 8-byte page id + 1-byte permission.
pub const ENTRY_WIRE_BYTES: usize = 9;

/// An RLE-compressed resident-page list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResidentList {
    runs: Vec<Run>,
    entries: usize,
}

impl ResidentList {
    /// Encode a sorted `(page, writable)` list. Panics if the input is not
    /// strictly sorted by page id, which `Dos::resident_list` guarantees;
    /// callers encoding lists from less-trusted sources should prefer
    /// [`ResidentList::try_encode`].
    ///
    /// # Examples
    ///
    /// ```
    /// use ddc_os::PageId;
    /// use teleport::ResidentList;
    ///
    /// // Three contiguous read-only pages collapse into a single run.
    /// let list = ResidentList::encode(&[
    ///     (PageId(7), false),
    ///     (PageId(8), false),
    ///     (PageId(9), false),
    /// ]);
    /// assert_eq!(list.runs().len(), 1);
    /// assert_eq!(list.encoded_bytes(), 13);
    /// assert_eq!(list.decode().len(), 3);
    /// ```
    pub fn encode(pages: &[(PageId, bool)]) -> Self {
        Self::try_encode(pages).expect("resident list must be strictly sorted")
    }

    /// [`ResidentList::encode`] with the sortedness requirement surfaced as
    /// a typed error instead of a panic. Checked in release builds too:
    /// an unsorted list silently corrupts the temporary context's page
    /// table on the decoding side, so it must never reach the wire.
    pub fn try_encode(pages: &[(PageId, bool)]) -> Result<Self, UnsortedResidentList> {
        if let Some(i) = pages.windows(2).position(|w| w[0].0 >= w[1].0) {
            return Err(UnsortedResidentList { at: i + 1 });
        }
        let mut runs: Vec<Run> = Vec::new();
        for &(pid, writable) in pages {
            match runs.last_mut() {
                Some(r) if r.writable == writable && pid.0 == r.start.0 + r.len as u64 => {
                    r.len += 1;
                }
                _ => runs.push(Run {
                    start: pid,
                    len: 1,
                    writable,
                }),
            }
        }
        Ok(ResidentList {
            runs,
            entries: pages.len(),
        })
    }

    /// Decode back to the flat `(page, writable)` list.
    pub fn decode(&self) -> Vec<(PageId, bool)> {
        let mut out = Vec::with_capacity(self.entries);
        for r in &self.runs {
            for i in 0..r.len as u64 {
                out.push((r.start.offset(i), r.writable));
            }
        }
        out
    }

    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Encoded wire size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.runs.len() * RUN_WIRE_BYTES
    }

    /// Wire size the uncompressed list would need.
    pub fn uncompressed_bytes(&self) -> usize {
        self.entries * ENTRY_WIRE_BYTES
    }

    /// Compression factor achieved (uncompressed / encoded); 1.0 for an
    /// empty list.
    pub fn compression_ratio(&self) -> f64 {
        if self.runs.is_empty() {
            1.0
        } else {
            self.uncompressed_bytes() as f64 / self.encoded_bytes() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(ids: &[(u64, bool)]) -> Vec<(PageId, bool)> {
        ids.iter().map(|&(p, w)| (PageId(p), w)).collect()
    }

    #[test]
    fn encode_merges_consecutive_same_permission() {
        let list = ResidentList::encode(&pages(&[
            (10, false),
            (11, false),
            (12, false),
            (13, true),
            (14, true),
            (20, false),
        ]));
        assert_eq!(list.runs().len(), 3);
        assert_eq!(list.runs()[0].len, 3);
        assert_eq!(list.runs()[1].len, 2);
        assert!(list.runs()[1].writable);
        assert_eq!(list.runs()[2].start, PageId(20));
        assert_eq!(list.decode().len(), 6);
    }

    #[test]
    fn permission_change_breaks_a_run() {
        let list = ResidentList::encode(&pages(&[(5, false), (6, true), (7, false)]));
        assert_eq!(list.runs().len(), 3);
    }

    #[test]
    fn roundtrip_identity() {
        let input = pages(&[(1, true), (2, true), (4, false), (9, true), (10, false)]);
        let list = ResidentList::encode(&input);
        assert_eq!(list.decode(), input);
    }

    #[test]
    fn try_encode_rejects_unsorted_input() {
        let err = ResidentList::try_encode(&pages(&[(3, false), (2, false)])).unwrap_err();
        assert_eq!(err.at, 1);
        assert!(err.to_string().contains("entry 1"));
        // Duplicates are "not strictly sorted" too.
        assert!(ResidentList::try_encode(&pages(&[(2, false), (2, true)])).is_err());
    }

    #[test]
    fn empty_list() {
        let list = ResidentList::encode(&[]);
        assert_eq!(list.encoded_bytes(), 0);
        assert_eq!(list.compression_ratio(), 1.0);
        assert!(list.decode().is_empty());
    }

    #[test]
    fn sequentially_filled_cache_compresses_about_20x() {
        // A cache filled by sequential scans holds long contiguous runs —
        // the situation behind the paper's measured 20x reduction. Model a
        // 64 Ki-page cache holding 16 contiguous extents.
        let mut input = Vec::new();
        for extent in 0..16u64 {
            let base = extent * 100_000;
            for i in 0..4_096 {
                input.push((PageId(base + i), extent % 2 == 0));
            }
        }
        let list = ResidentList::encode(&input);
        assert_eq!(list.runs().len(), 16);
        let ratio = list.compression_ratio();
        assert!(ratio > 20.0, "compression ratio was {ratio:.0}x");
        // The encoded request fits comfortably in one RDMA message.
        assert!(list.encoded_bytes() < 4096);
    }

    #[test]
    fn worst_case_alternating_pages_do_not_compress() {
        let input: Vec<_> = (0..100).map(|i| (PageId(i * 2), false)).collect();
        let list = ResidentList::encode(&input);
        assert_eq!(list.runs().len(), 100);
        assert!(
            list.compression_ratio() < 1.0,
            "runs are larger than entries"
        );
        assert_eq!(list.decode(), input);
    }
}
