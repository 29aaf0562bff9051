//! An intrusive-list LRU tracker over page identities.
//!
//! Both the compute-local cache and the memory pool use LRU replacement,
//! matching LegoOS's eviction policy. `SlotList` is the slab-backed doubly
//! linked list, addressed by slab slot; each user pairs it with a
//! [`PageTable`] that finds a page's slot: [`LruList`] and the compute
//! cache with a bare page → slot index. Touch, insert and evict are O(1)
//! and fully deterministic. The memory pool keeps no chain: most pools
//! never spill, so it stamps pages and orders them by stamp only once it
//! must (`pool.rs`).

use crate::page::{PageId, PageTable};

/// "No slot": the end of a chain, or a page that is not on the list.
pub(crate) const NIL: u32 = u32::MAX;

/// `next` of a node whose slot is on the free list.
const FREE: u32 = NIL - 1;

#[derive(Debug, Clone)]
struct Node<T> {
    page: PageId,
    prev: u32,
    next: u32,
    data: T,
}

/// Pages in recency order, most-recently-used at the head, each carrying a
/// payload. Whoever holds the page → slot map keeps it in step: a slot is
/// valid from the `push_front` that returned it until the `remove` /
/// `pop_back` that frees it.
#[derive(Debug, Clone)]
pub(crate) struct SlotList<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl<T: Copy> SlotList<T> {
    pub(crate) fn new() -> Self {
        SlotList {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Add `page` as most-recently-used; returns its slot.
    pub(crate) fn push_front(&mut self, page: PageId, data: T) -> u32 {
        let node = Node {
            page,
            prev: NIL,
            next: NIL,
            data,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                assert!(self.nodes.len() < FREE as usize, "LRU slab outgrew u32");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.link_front(slot);
        slot
    }

    /// Make the page in `slot` most-recently-used.
    #[inline]
    pub(crate) fn move_to_front(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    /// True if the page in `slot` is the most recently used.
    #[inline]
    pub(crate) fn is_head(&self, slot: u32) -> bool {
        self.head == slot
    }

    /// Take the page in `slot` off the list and free the slot.
    pub(crate) fn remove(&mut self, slot: u32) -> (PageId, T) {
        self.unlink(slot);
        self.free.push(slot);
        let node = &mut self.nodes[slot as usize];
        node.next = FREE;
        (node.page, node.data)
    }

    /// The least-recently-used page, without removing it.
    pub(crate) fn back(&self) -> Option<PageId> {
        (self.tail != NIL).then(|| self.nodes[self.tail as usize].page)
    }

    /// Remove and return the least-recently-used page: the tail is unlinked
    /// directly, no lookup.
    pub(crate) fn pop_back(&mut self) -> Option<(PageId, T)> {
        (self.tail != NIL).then(|| self.remove(self.tail))
    }

    #[inline]
    pub(crate) fn data(&self, slot: u32) -> T {
        self.nodes[slot as usize].data
    }

    #[inline]
    pub(crate) fn data_mut(&mut self, slot: u32) -> &mut T {
        &mut self.nodes[slot as usize].data
    }

    /// Pages and payloads from most- to least-recently-used: a walk of the
    /// chain, so O(pages on the list) however large the slab once grew.
    /// Exact-sized, so collecting it allocates once.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = (PageId, T)> + '_ {
        let mut cursor = self.head;
        (0..self.len()).map(move |_| {
            let node = &self.nodes[cursor as usize];
            cursor = node.next;
            (node.page, node.data)
        })
    }

    /// Every page and payload on the list, in slab order: no chain to chase,
    /// for walks whose order does not matter. Costs O(most pages the list
    /// ever held at once), which its owner's capacity bounds.
    pub(crate) fn iter_slab(&self) -> impl Iterator<Item = (PageId, T)> + '_ {
        let live = self.nodes.iter().filter(|node| node.next != FREE);
        live.map(|node| (node.page, node.data))
    }

    #[inline]
    fn link_front(&mut self, slot: u32) {
        let old = std::mem::replace(&mut self.head, slot);
        self.nodes[slot as usize].prev = NIL;
        self.nodes[slot as usize].next = old;
        match old {
            NIL => self.tail = slot,
            _ => self.nodes[old as usize].prev = slot,
        }
    }

    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            _ => self.nodes[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            _ => self.nodes[next as usize].prev = prev,
        }
    }
}

/// LRU ordering over a set of pages. Most-recently-used at the head.
#[derive(Debug, Clone)]
pub struct LruList {
    list: SlotList<()>,
    /// Page → slot in `list`; `NIL` for a page that is not listed.
    index: PageTable<u32>,
}

impl Default for LruList {
    fn default() -> Self {
        Self::new()
    }
}

impl LruList {
    pub fn new() -> Self {
        LruList {
            list: SlotList::new(),
            index: PageTable::new(NIL),
        }
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn contains(&self, page: PageId) -> bool {
        self.index.get(page) != NIL
    }

    /// Insert `page` as most-recently-used, or move it to the front if
    /// already present. Returns true if the page was newly inserted.
    pub fn touch(&mut self, page: PageId) -> bool {
        match self.index.get(page) {
            NIL => {
                *self.index.entry(page) = self.list.push_front(page, ());
                true
            }
            slot => {
                self.list.move_to_front(slot);
                false
            }
        }
    }

    /// Remove `page` from the list. Returns true if it was present.
    pub fn remove(&mut self, page: PageId) -> bool {
        match self.index.get_mut(page) {
            Some(slot) if *slot != NIL => {
                self.list.remove(std::mem::replace(slot, NIL));
                true
            }
            _ => false,
        }
    }

    /// The least-recently-used page, without removing it.
    pub fn peek_lru(&self) -> Option<PageId> {
        self.list.back()
    }

    /// Remove and return the least-recently-used page.
    pub fn pop_lru(&mut self) -> Option<PageId> {
        let (page, ()) = self.list.pop_back()?;
        *self.index.entry(page) = NIL;
        Some(page)
    }

    /// Pages from most- to least-recently-used.
    pub fn iter_mru(&self) -> impl Iterator<Item = PageId> + '_ {
        self.list.iter().map(|(page, ())| page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(list: &LruList) -> Vec<u64> {
        list.iter_mru().map(|p| p.0).collect()
    }

    #[test]
    fn touch_orders_mru_first() {
        let mut l = LruList::new();
        assert!(l.touch(PageId(1)));
        assert!(l.touch(PageId(2)));
        assert!(l.touch(PageId(3)));
        assert_eq!(pages(&l), vec![3, 2, 1]);
        assert!(!l.touch(PageId(1)), "re-touch is not an insert");
        assert_eq!(pages(&l), vec![1, 3, 2]);
        assert_eq!(l.peek_lru(), Some(PageId(2)));
    }

    #[test]
    fn pop_lru_evicts_in_order() {
        let mut l = LruList::new();
        for i in 0..4 {
            l.touch(PageId(i));
        }
        assert_eq!(l.pop_lru(), Some(PageId(0)));
        assert_eq!(l.pop_lru(), Some(PageId(1)));
        l.touch(PageId(2)); // refresh 2
        assert_eq!(l.pop_lru(), Some(PageId(3)));
        assert_eq!(l.pop_lru(), Some(PageId(2)));
        assert_eq!(l.pop_lru(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn remove_middle_keeps_links_consistent() {
        let mut l = LruList::new();
        for i in 0..5 {
            l.touch(PageId(i));
        }
        assert!(l.remove(PageId(2)));
        assert!(!l.remove(PageId(2)));
        assert_eq!(pages(&l), vec![4, 3, 1, 0]);
        assert_eq!(l.len(), 4);
        // Slab slot is reused.
        l.touch(PageId(9));
        assert_eq!(pages(&l), vec![9, 4, 3, 1, 0]);
    }

    #[test]
    fn remove_head_and_tail() {
        let mut l = LruList::new();
        for i in 0..3 {
            l.touch(PageId(i));
        }
        assert!(l.remove(PageId(2))); // head
        assert!(l.remove(PageId(0))); // tail
        assert_eq!(pages(&l), vec![1]);
        assert_eq!(l.peek_lru(), Some(PageId(1)));
        assert!(l.remove(PageId(1)));
        assert!(l.is_empty());
        assert_eq!(l.peek_lru(), None);
    }

    #[test]
    fn absent_page_far_past_the_index_is_not_listed() {
        // An index grown to cover this id would need 2^52 slots, so an
        // answer at all shows the lookups left it alone.
        let far = PageId(u64::MAX >> 12);
        let mut l = LruList::new();
        l.touch(PageId(1));
        assert!(!l.contains(far));
        assert!(!l.remove(far));
        assert_eq!(pages(&l), vec![1]);
    }

    #[test]
    fn emptied_list_reuses_its_slab() {
        let mut l = LruList::new();
        for i in 0..100 {
            l.touch(PageId(i));
        }
        while l.pop_lru().is_some() {}
        assert!(l.is_empty() && !l.contains(PageId(5)));
        assert_eq!(l.peek_lru(), None);
        for i in 0..100 {
            assert!(l.touch(PageId(100_000 + i)));
        }
        assert_eq!(l.list.nodes.len(), 100, "freed slots were reused");
        assert_eq!(l.pop_lru(), Some(PageId(100_000)));
    }

    #[test]
    fn slab_walk_skips_freed_slots_and_sees_reused_ones() {
        let mut list = SlotList::new();
        let slots: Vec<u32> = (0..4).map(|i| list.push_front(PageId(i), i)).collect();
        list.remove(slots[1]);
        list.remove(slots[3]);
        let slab = |l: &SlotList<u64>| l.iter_slab().collect::<Vec<_>>();
        assert_eq!(slab(&list), [(PageId(0), 0), (PageId(2), 2)]);
        list.push_front(PageId(9), 9); // reuses slot 3
        assert_eq!(
            slab(&list),
            [(PageId(0), 0), (PageId(2), 2), (PageId(9), 9)]
        );
        let chain: Vec<_> = list.iter().map(|(p, _)| p.0).collect();
        assert_eq!(chain, [9, 2, 0]);
    }

    #[test]
    fn single_element_list() {
        let mut l = LruList::new();
        l.touch(PageId(7));
        assert_eq!(l.peek_lru(), Some(PageId(7)));
        assert!(!l.touch(PageId(7)));
        assert_eq!(l.pop_lru(), Some(PageId(7)));
        assert!(l.pop_lru().is_none());
    }
}
