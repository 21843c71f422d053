//! memcached-style slab-class memory accounting.
//!
//! memcached does not allocate items individually: memory is carved into
//! 1 MiB *pages*, each assigned to a *slab class* of fixed-size chunks;
//! an item occupies one chunk of the smallest class that fits it. Two
//! consequences matter for capacity planning (and therefore for the
//! optimizer's `usable_ram_gb`):
//!
//! * **internal fragmentation** — a 1.1 KiB item in a 1.25 KiB chunk wastes
//!   the difference, and
//! * **page calcification** — pages assigned to one class are not available
//!   to others, so a shifting size distribution strands memory.
//!
//! This module implements the chunk-size ladder and page accounting so the
//! effective capacity of a node under a given item-size distribution can be
//! computed rather than guessed.
//!
//! It is **accounting only**: nothing here hands out memory. The store's
//! values are individual heap blocks budgeted by the `key + value + 56`
//! model ([`crate::store`] §"Layout and accounting"); carving them out of
//! these chunks is the open half of ROADMAP 1(a) — allocator calls were
//! ≈ 0.1 of 1.24 µs per `write_evict` command, so size it by RAM, not CPU.

/// Page size (memcached's slab page).
pub const PAGE_SIZE: usize = 1 << 20;

/// Smallest chunk size (memcached default: 96 bytes with 48-byte item
/// overhead included).
pub const MIN_CHUNK: usize = 96;

/// A slab-class ladder with a geometric growth factor.
#[derive(Debug, Clone)]
pub struct SlabClasses {
    /// Ascending chunk sizes.
    sizes: Vec<usize>,
}

impl SlabClasses {
    /// Builds the ladder with memcached's default growth factor (1.25).
    pub fn default_ladder() -> Self {
        Self::with_growth_factor(1.25)
    }

    /// Builds a ladder with a custom growth factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 1.0`.
    pub fn with_growth_factor(factor: f64) -> Self {
        assert!(factor > 1.0, "growth factor must exceed 1");
        let mut sizes = Vec::new();
        let mut size = MIN_CHUNK;
        while size <= PAGE_SIZE / 2 {
            sizes.push(size);
            let next = ((size as f64 * factor) as usize).max(size + 8);
            // memcached aligns chunks to 8 bytes.
            size = next.div_ceil(8) * 8;
        }
        sizes.push(PAGE_SIZE); // the "huge" class: one item per page
        Self { sizes }
    }

    /// Number of classes.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// The class index whose chunks fit an item of `bytes` total size
    /// (key + value + overhead); `None` if it exceeds the page size.
    pub fn class_for(&self, bytes: usize) -> Option<usize> {
        let idx = self.sizes.partition_point(|&s| s < bytes);
        (idx < self.sizes.len()).then_some(idx)
    }

    /// Chunk size of a class.
    pub fn chunk_size(&self, class: usize) -> usize {
        self.sizes[class]
    }

    /// Chunks per page for a class.
    pub fn chunks_per_page(&self, class: usize) -> usize {
        PAGE_SIZE / self.sizes[class]
    }

    /// Internal fragmentation of an item of `bytes` in its class, bytes.
    pub fn waste(&self, bytes: usize) -> Option<usize> {
        self.class_for(bytes).map(|c| self.sizes[c] - bytes)
    }
}

/// Page-level accounting for one node's slab memory.
#[derive(Debug, Clone)]
pub struct SlabAllocator {
    classes: SlabClasses,
    total_pages: usize,
    assigned_pages: Vec<usize>,
    used_chunks: Vec<usize>,
}

/// Errors from [`SlabAllocator::allocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabError {
    /// The item exceeds the page size.
    TooLarge,
    /// No free chunk in the item's class and no unassigned page remains —
    /// the caller must evict *within the same class* (memcached's
    /// behaviour) and retry.
    NeedsEviction {
        /// The class that is full.
        class: usize,
    },
}

impl SlabAllocator {
    /// Creates an allocator over `capacity_bytes` of memory.
    pub fn new(capacity_bytes: usize) -> Self {
        let classes = SlabClasses::default_ladder();
        let n = classes.count();
        Self {
            total_pages: capacity_bytes / PAGE_SIZE,
            assigned_pages: vec![0; n],
            used_chunks: vec![0; n],
            classes,
        }
    }

    /// The ladder.
    pub fn classes(&self) -> &SlabClasses {
        &self.classes
    }

    /// Unassigned pages remaining.
    pub fn free_pages(&self) -> usize {
        self.total_pages - self.assigned_pages.iter().sum::<usize>()
    }

    /// Allocates a chunk for an item of `bytes`, assigning a fresh page to
    /// its class if needed. Returns the class used.
    pub fn allocate(&mut self, bytes: usize) -> Result<usize, SlabError> {
        let class = self.classes.class_for(bytes).ok_or(SlabError::TooLarge)?;
        let capacity = self.assigned_pages[class] * self.classes.chunks_per_page(class);
        if self.used_chunks[class] < capacity {
            self.used_chunks[class] += 1;
            return Ok(class);
        }
        if self.free_pages() > 0 {
            self.assigned_pages[class] += 1;
            self.used_chunks[class] += 1;
            return Ok(class);
        }
        Err(SlabError::NeedsEviction { class })
    }

    /// Frees one chunk in `class`.
    ///
    /// # Panics
    ///
    /// Panics if the class has no used chunks.
    pub fn free(&mut self, class: usize) {
        assert!(self.used_chunks[class] > 0, "free of empty class {class}");
        self.used_chunks[class] -= 1;
    }

    /// Bytes actually usable for items of `bytes` size each, given the
    /// current page assignment (capacity-planning helper).
    pub fn effective_capacity_items(&self, bytes: usize) -> Option<usize> {
        let class = self.classes.class_for(bytes)?;
        let assigned = self.assigned_pages[class] * self.classes.chunks_per_page(class);
        let from_free = self.free_pages() * self.classes.chunks_per_page(class);
        Some(assigned - self.used_chunks[class] + from_free)
    }

    /// Overall memory efficiency: fraction of assigned bytes holding used
    /// chunks (1.0 when nothing is assigned).
    pub fn occupancy(&self) -> f64 {
        let assigned: usize = self
            .assigned_pages
            .iter()
            .enumerate()
            .map(|(c, &p)| p * self.classes.chunks_per_page(c) * self.classes.chunk_size(c))
            .sum();
        if assigned == 0 {
            return 1.0;
        }
        let used: usize = self
            .used_chunks
            .iter()
            .enumerate()
            .map(|(c, &n)| n * self.classes.chunk_size(c))
            .sum();
        used as f64 / assigned as f64
    }
}

/// Effective usable fraction of a node's RAM for a fixed item size —
/// what the optimizer's `usable_ram_gb` should really be multiplied by
/// beyond the OS/overhead haircut.
pub fn slab_efficiency(item_bytes: usize) -> f64 {
    let classes = SlabClasses::default_ladder();
    match classes.class_for(item_bytes) {
        Some(c) => {
            let per_page = classes.chunks_per_page(c);
            (per_page * item_bytes) as f64 / PAGE_SIZE as f64
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ladder_is_geometric_and_aligned() {
        let l = SlabClasses::default_ladder();
        assert!(l.count() > 20);
        assert_eq!(l.chunk_size(0), MIN_CHUNK);
        for c in 0..l.count() - 1 {
            assert!(l.chunk_size(c + 1) > l.chunk_size(c));
            assert_eq!(l.chunk_size(c) % 8, 0, "class {c} unaligned");
        }
        assert_eq!(l.chunk_size(l.count() - 1), PAGE_SIZE);
    }

    #[test]
    fn class_selection_fits() {
        let l = SlabClasses::default_ladder();
        for bytes in [1usize, 96, 97, 1_000, 4_152, 100_000, PAGE_SIZE] {
            let c = l.class_for(bytes).unwrap();
            assert!(l.chunk_size(c) >= bytes);
            if c > 0 {
                assert!(
                    l.chunk_size(c - 1) < bytes,
                    "not the smallest fitting class"
                );
            }
        }
        assert!(l.class_for(PAGE_SIZE + 1).is_none());
    }

    #[test]
    fn waste_is_chunk_minus_item() {
        let l = SlabClasses::default_ladder();
        let w = l.waste(100).unwrap();
        let c = l.class_for(100).unwrap();
        assert_eq!(w, l.chunk_size(c) - 100);
    }

    #[test]
    fn allocator_assigns_pages_lazily() {
        let mut a = SlabAllocator::new(4 * PAGE_SIZE);
        assert_eq!(a.free_pages(), 4);
        let class = a.allocate(1_000).unwrap();
        assert_eq!(a.free_pages(), 3);
        // Fills the rest of the page without new assignments.
        let per_page = a.classes().chunks_per_page(class);
        for _ in 1..per_page {
            a.allocate(1_000).unwrap();
        }
        assert_eq!(a.free_pages(), 3);
        a.allocate(1_000).unwrap();
        assert_eq!(a.free_pages(), 2);
    }

    #[test]
    fn calcification_forces_in_class_eviction() {
        let mut a = SlabAllocator::new(2 * PAGE_SIZE);
        // Fill both pages with small items.
        let small_class = a.classes().class_for(100).unwrap();
        let per_page = a.classes().chunks_per_page(small_class);
        for _ in 0..2 * per_page {
            a.allocate(100).unwrap();
        }
        // A large item now has nowhere to go even though small chunks
        // could theoretically be reclaimed.
        let err = a.allocate(100_000).unwrap_err();
        assert!(matches!(err, SlabError::NeedsEviction { .. }));
        // Freeing small chunks does not help the large class (pages are
        // calcified) ...
        a.free(small_class);
        assert!(matches!(
            a.allocate(100_000),
            Err(SlabError::NeedsEviction { .. })
        ));
    }

    #[test]
    fn oversized_rejected() {
        let mut a = SlabAllocator::new(4 * PAGE_SIZE);
        assert_eq!(a.allocate(PAGE_SIZE + 1).unwrap_err(), SlabError::TooLarge);
    }

    #[test]
    fn occupancy_tracks_usage() {
        let mut a = SlabAllocator::new(4 * PAGE_SIZE);
        assert_eq!(a.occupancy(), 1.0);
        let c = a.allocate(4_152).unwrap();
        assert!(a.occupancy() < 0.1, "one chunk in a whole page");
        let per_page = a.classes().chunks_per_page(c);
        for _ in 1..per_page {
            a.allocate(4_152).unwrap();
        }
        assert!(a.occupancy() > 0.9);
    }

    #[test]
    fn effective_capacity_accounts_free_pages() {
        let a = SlabAllocator::new(4 * PAGE_SIZE);
        let items = a.effective_capacity_items(4_152).unwrap();
        let per_page = a
            .classes()
            .chunks_per_page(a.classes().class_for(4_152).unwrap());
        assert_eq!(items, 4 * per_page);
    }

    #[test]
    fn slab_efficiency_for_paper_items() {
        // 4 KiB values + key + overhead ≈ 4.2 KiB items: efficiency should
        // be decent but visibly below 1.
        let e = slab_efficiency(4_152);
        assert!((0.7..1.0).contains(&e), "{e}");
        // Pathological size just past a chunk boundary wastes a lot.
        let l = SlabClasses::default_ladder();
        let boundary = l.chunk_size(10);
        let bad = slab_efficiency(boundary + 1);
        let good = slab_efficiency(boundary);
        assert!(bad < good);
        assert_eq!(slab_efficiency(PAGE_SIZE + 1), 0.0);
    }

    proptest! {
        /// Alloc/free sequences never corrupt the accounting: used chunks
        /// never exceed assigned capacity and pages never go negative.
        #[test]
        fn accounting_invariants(ops in proptest::collection::vec((any::<bool>(), 64usize..10_000), 1..400)) {
            let mut a = SlabAllocator::new(8 * PAGE_SIZE);
            let mut live: Vec<usize> = Vec::new();
            for (is_alloc, size) in ops {
                if is_alloc || live.is_empty() {
                    if let Ok(class) = a.allocate(size) {
                        live.push(class);
                    }
                } else {
                    let class = live.swap_remove(size % live.len());
                    a.free(class);
                }
                let assigned: usize = a.assigned_pages.iter().sum();
                prop_assert!(assigned <= a.total_pages);
                for c in 0..a.classes().count() {
                    prop_assert!(
                        a.used_chunks[c] <= a.assigned_pages[c] * a.classes().chunks_per_page(c)
                    );
                }
            }
        }
    }
}
