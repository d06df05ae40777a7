//! Memory-table storage layer for the live well.
//!
//! The paper's working-set lament — "a very large memory (32 MBytes) was
//! required to hold the working set of Paragraph" — makes the live well's
//! memory table the hot data structure of the whole analysis: three hashed
//! probes per dynamic instruction (two source reads, one destination
//! write), plus a full collect-and-sort scan on every eviction batch in
//! bounded mode. This module exploits what a flat hash map cannot: word
//! addresses are *spatially local*. Programs hammer the same stack frame,
//! the same heap object, the same global — addresses that share all but
//! their low bits.
//!
//! [`PagedWell`] is a two-level structure: a page directory (hash map keyed
//! by `addr >> PAGE_SHIFT`) pointing into dense fixed-size pages of
//! [`ValueRecord`] slots with an occupancy bitmap. A lookup that stays on
//! the most recently touched page — the overwhelmingly common case — is a
//! shift, a compare, a mask and one pointer chase, with no hashing at all.
//! Each page additionally carries a `min_bound` summary (a lower bound on
//! the smallest `deepest_use` among its occupied slots) so
//! `enforce_live_well_cap` can rank whole pages and stop scanning as soon
//! as the eviction threshold is provably below every unscanned page,
//! instead of collecting and sorting every resident address.
//!
//! `FlatWell`, the legacy single-level table, is compiled for tests only:
//! it is the reference model the equivalence tests hold [`PagedWell`] to.
//! Both implement [`MemTable`], and the streaming slot space
//! ([`StreamSlots`](crate::slots::StreamSlots)) is generic over it —
//! monomorphized, so the abstraction costs nothing at run time.
//!
//! Every operation is observation-equivalent across implementations: same
//! lookups, same eviction *set* (the exact `excess` entries with the
//! smallest `(deepest_use, addr)` key), same sorted iteration order. The
//! PGCP checkpoint serializes entries in sorted-address order, so the bytes
//! are layout-independent by construction; the model-based property test in
//! this module and the cross-layout checkpoint tests in `livewell.rs` pin
//! that down.

use paragraph_trace::fasthash::FastMap;
use std::cell::Cell;
use std::collections::hash_map::Entry;

/// log2 of the page size: 64 word-addresses per page, so a page's occupancy
/// bitmap is exactly one `u64` and a page weighs ~1.5 KiB — comfortably
/// inside L1 while it is hot.
const PAGE_SHIFT: u32 = 6;
/// Slots per page.
const PAGE_SLOTS: usize = 1 << PAGE_SHIFT;
/// Low-bit mask selecting the slot within a page.
const SLOT_MASK: u64 = (PAGE_SLOTS as u64) - 1;
/// Hot-page cache sentinel. No real page number can equal it: page numbers
/// are `addr >> PAGE_SHIFT`, which caps at `u64::MAX >> PAGE_SHIFT`.
const NO_PAGE: u64 = u64::MAX;

/// A live-well entry: where a value became available, and the deepest level
/// at which it has been used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueRecord {
    /// Number of operations that have read this value (degree of sharing).
    /// Saturating: a location read more than `u32::MAX` times pins at the
    /// ceiling instead of wrapping and corrupting the sharing distribution.
    pub(crate) readers: u32,
    /// Completion level of the operation that created the value. Values that
    /// existed when the program began (pre-initialized registers, DATA words)
    /// are recorded at level -1, "the level immediately preceding the
    /// topologically highest level in the DDG", so they delay nothing.
    pub(crate) avail: i64,
    /// Deepest completion level of any operation that has read this value
    /// (at least `avail`). This is the paper's `Ddest`: the level a
    /// non-renamed overwrite of the location must be placed below.
    pub(crate) deepest_use: i64,
}

impl ValueRecord {
    pub(crate) fn preexisting() -> ValueRecord {
        ValueRecord {
            readers: 0,
            avail: -1,
            deepest_use: -1,
        }
    }
}

/// Storage abstraction for the live well's memory table.
///
/// The analyzer is generic over this trait (and monomorphized per
/// implementation); [`PagedWell`] is the production table, and the
/// test-only `FlatWell` the legacy reference. All implementations must be
/// observation-equivalent — the equivalence suite treats `FlatWell` as the
/// executable specification.
///
/// This trait is sealed: downstream crates can name it in bounds but not
/// implement it, so the equivalence obligations stay inside this crate.
pub trait MemTable: sealed::Sealed + std::fmt::Debug + Default {
    /// Number of resident entries.
    fn len(&self) -> usize;

    /// True when no entries are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The record at `addr`, if resident.
    fn get(&self, addr: u64) -> Option<&ValueRecord>;

    /// Resolves `addr` to a slot handle for [`slot_mut`](Self::slot_mut)
    /// and [`replace`](Self::replace), inserting a preexisting (level -1)
    /// record if the address is not resident — the live well's read-side
    /// primitive. A handle stays valid until the next removal or eviction,
    /// so the analyzer looks each operand up once per record.
    fn resolve(&mut self, addr: u64) -> u64;

    /// The record behind a handle from [`resolve`](Self::resolve).
    fn slot_mut(&mut self, handle: u64) -> &mut ValueRecord;

    /// Overwrites the record behind a handle from
    /// [`resolve`](Self::resolve), returning the record it held.
    fn replace(&mut self, handle: u64, record: ValueRecord) -> ValueRecord;

    /// The record at `addr`, inserting a preexisting (level -1) record if
    /// the address is not resident.
    #[inline]
    fn get_or_insert_preexisting(&mut self, addr: u64) -> &mut ValueRecord {
        let handle = self.resolve(addr);
        self.slot_mut(handle)
    }

    /// Inserts `record` at `addr`, returning the displaced record if the
    /// address was resident.
    fn insert(&mut self, addr: u64, record: ValueRecord) -> Option<ValueRecord>;

    /// Removes and returns the record at `addr`.
    fn remove(&mut self, addr: u64) -> Option<ValueRecord>;

    /// Visits every entry in ascending address order — the checkpoint
    /// serialization order, identical across implementations.
    fn for_each_sorted<F: FnMut(u64, &ValueRecord)>(&self, f: F);

    /// Visits every resident record in unspecified order (used to retire
    /// survivors into the order-independent lifetime/sharing histograms).
    fn for_each_value<F: FnMut(&ValueRecord)>(&self, f: F);

    /// Evicts exactly `min(excess, len)` entries — those with the smallest
    /// `(deepest_use, addr)` keys, so the eviction set is deterministic and
    /// identical across implementations — calling `retire` on each removed
    /// record. Returns the number evicted.
    fn evict_coldest<F: FnMut(ValueRecord)>(&mut self, excess: usize, retire: F) -> u64;
}

mod sealed {
    pub trait Sealed {}
    #[cfg(test)]
    impl Sealed for super::FlatWell {}
    impl Sealed for super::PagedWell {}
}

/// The legacy flat memory table: one hash probe per access.
///
/// Kept for tests as the executable reference model for [`PagedWell`]. Its
/// eviction path carries the shared fix: the threshold is found with
/// `select_nth_unstable` (O(n)) instead of sorting the whole table
/// (O(n log n)).
#[cfg(test)]
#[derive(Debug, Default)]
pub struct FlatWell {
    map: FastMap<u64, ValueRecord>,
}

#[cfg(test)]
impl MemTable for FlatWell {
    #[inline]
    fn len(&self) -> usize {
        self.map.len()
    }

    #[inline]
    fn get(&self, addr: u64) -> Option<&ValueRecord> {
        self.map.get(&addr)
    }

    /// The handle is the address itself: the flat table has no slots to
    /// point into, so every handle access is a fresh probe.
    fn resolve(&mut self, addr: u64) -> u64 {
        self.map
            .entry(addr)
            .or_insert_with(ValueRecord::preexisting);
        addr
    }

    fn slot_mut(&mut self, handle: u64) -> &mut ValueRecord {
        self.map
            .entry(handle)
            .or_insert_with(ValueRecord::preexisting)
    }

    fn replace(&mut self, handle: u64, record: ValueRecord) -> ValueRecord {
        self.map
            .insert(handle, record)
            .unwrap_or_else(ValueRecord::preexisting)
    }

    #[inline]
    fn insert(&mut self, addr: u64, record: ValueRecord) -> Option<ValueRecord> {
        self.map.insert(addr, record)
    }

    #[inline]
    fn remove(&mut self, addr: u64) -> Option<ValueRecord> {
        self.map.remove(&addr)
    }

    fn for_each_sorted<F: FnMut(u64, &ValueRecord)>(&self, mut f: F) {
        let mut addrs: Vec<u64> = self.map.keys().copied().collect();
        addrs.sort_unstable();
        for addr in addrs {
            if let Some(record) = self.map.get(&addr) {
                f(addr, record);
            }
        }
    }

    fn for_each_value<F: FnMut(&ValueRecord)>(&self, mut f: F) {
        for record in self.map.values() {
            f(record);
        }
    }

    fn evict_coldest<F: FnMut(ValueRecord)>(&mut self, excess: usize, mut retire: F) -> u64 {
        if excess == 0 || self.map.is_empty() {
            return 0;
        }
        let mut coldest: Vec<(i64, u64)> = self
            .map
            .iter()
            .map(|(&addr, record)| (record.deepest_use, addr))
            .collect();
        if excess < coldest.len() {
            // Partition around the k-th smallest (deepest_use, addr) key:
            // linear in the table instead of the old full sort.
            coldest.select_nth_unstable(excess - 1);
            coldest.truncate(excess);
        }
        let mut evicted = 0u64;
        for &(_, addr) in &coldest {
            if let Some(old) = self.map.remove(&addr) {
                retire(old);
                evicted += 1;
            }
        }
        evicted
    }
}

/// One 64-slot page of the paged well. `occupied` is the slot bitmap;
/// `min_bound` is a *lazy lower bound* on the smallest `deepest_use` among
/// occupied slots: tightened on insert, left stale-low when a slot's
/// `deepest_use` rises or the minimum is removed (both only make the true
/// minimum larger, so the bound stays valid), refreshed exactly whenever an
/// eviction scan touches the page.
#[derive(Debug, Clone)]
struct Page {
    occupied: u64,
    min_bound: i64,
    slots: [ValueRecord; PAGE_SLOTS],
}

impl Page {
    fn empty() -> Page {
        Page {
            occupied: 0,
            min_bound: i64::MAX,
            slots: [ValueRecord::preexisting(); PAGE_SLOTS],
        }
    }
}

/// The paged live-well memory table (this PR's tentpole).
///
/// Two levels: a directory mapping page number (`addr >> 6`) to an index
/// into a pool of dense 64-slot pages. Consecutive accesses to the same
/// page — the common case, given the spatial locality of stack frames,
/// heap objects and globals — skip the directory entirely via a two-entry
/// hot-page cache: the lookup is then a shift, a compare and an array
/// index. Two entries instead of one because real traces interleave two
/// hot streams (a stack frame and a heap object); a single entry thrashes
/// on exactly that alternation. Empty pages return to a free list, and
/// each page's `min_bound` summary lets [`MemTable::evict_coldest`] stop
/// scanning as soon as the k-th coldest candidate is provably colder than
/// every unscanned page.
#[derive(Debug)]
pub struct PagedWell {
    dir: FastMap<u64, u32>,
    pages: Vec<Page>,
    free: Vec<u32>,
    len: usize,
    /// Hot-page cache: page numbers and pool indices of the two most
    /// recently touched pages, most recent first. `Cell` so the read path
    /// (`get`) can refresh it too.
    cache_page_no: [Cell<u64>; 2],
    cache_idx: [Cell<u32>; 2],
}

impl Default for PagedWell {
    fn default() -> PagedWell {
        PagedWell {
            dir: FastMap::default(),
            pages: Vec::new(),
            free: Vec::new(),
            len: 0,
            cache_page_no: [Cell::new(NO_PAGE), Cell::new(NO_PAGE)],
            cache_idx: [Cell::new(0), Cell::new(0)],
        }
    }
}

#[inline]
fn split(addr: u64) -> (u64, usize) {
    (addr >> PAGE_SHIFT, (addr & SLOT_MASK) as usize)
}

impl PagedWell {
    /// Records `page_no -> idx` as the most recent cache entry, demoting
    /// the previous front to the second slot.
    #[inline]
    fn cache_front(&self, page_no: u64, idx: u32) {
        self.cache_page_no[1].set(self.cache_page_no[0].get());
        self.cache_idx[1].set(self.cache_idx[0].get());
        self.cache_page_no[0].set(page_no);
        self.cache_idx[0].set(idx);
    }

    /// Cache lookup: front entry, then second entry (promoted to front on
    /// a hit, so two alternating hot pages each stay resident).
    #[inline]
    fn cache_get(&self, page_no: u64) -> Option<u32> {
        if self.cache_page_no[0].get() == page_no {
            return Some(self.cache_idx[0].get());
        }
        if self.cache_page_no[1].get() == page_no {
            let idx = self.cache_idx[1].get();
            self.cache_page_no[1].set(self.cache_page_no[0].get());
            self.cache_idx[1].set(self.cache_idx[0].get());
            self.cache_page_no[0].set(page_no);
            self.cache_idx[0].set(idx);
            return Some(idx);
        }
        None
    }

    /// Pool index of `page_no`, going through the hot-page cache.
    #[inline]
    fn page_index(&self, page_no: u64) -> Option<u32> {
        if let Some(idx) = self.cache_get(page_no) {
            return Some(idx);
        }
        let idx = *self.dir.get(&page_no)?;
        self.cache_front(page_no, idx);
        Some(idx)
    }

    /// Pool index of `page_no`, allocating (from the free list when
    /// possible) if the page does not exist yet.
    #[inline]
    fn page_index_or_create(&mut self, page_no: u64) -> u32 {
        if let Some(idx) = self.cache_get(page_no) {
            return idx;
        }
        let idx = match self.dir.entry(page_no) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(vacant) => {
                // Freed pages are reset (occupied = 0, min_bound = MAX) when
                // they enter the free list, so reuse needs no re-init.
                let idx = match self.free.pop() {
                    Some(idx) => idx,
                    None => {
                        let idx = self.pages.len() as u32;
                        self.pages.push(Page::empty());
                        idx
                    }
                };
                *vacant.insert(idx)
            }
        };
        self.cache_front(page_no, idx);
        idx
    }
}

impl MemTable for PagedWell {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, addr: u64) -> Option<&ValueRecord> {
        let (page_no, slot) = split(addr);
        let page = &self.pages[self.page_index(page_no)? as usize];
        if page.occupied & (1u64 << slot) != 0 {
            Some(&page.slots[slot])
        } else {
            None
        }
    }

    /// The handle is the page's pool index and the slot within it. A slot
    /// entered here lowers the page's `min_bound` to -1, and a deeper
    /// record written over it through `replace` leaves the bound
    /// stale-low until the next eviction scan refreshes it: the same
    /// valid lower bound a first read of a word already leaves.
    #[inline]
    fn resolve(&mut self, addr: u64) -> u64 {
        let (page_no, slot) = split(addr);
        let idx = self.page_index_or_create(page_no);
        let page = &mut self.pages[idx as usize];
        let bit = 1u64 << slot;
        if page.occupied & bit == 0 {
            page.occupied |= bit;
            page.slots[slot] = ValueRecord::preexisting();
            page.min_bound = page.min_bound.min(-1);
            self.len += 1;
        }
        (u64::from(idx) << PAGE_SHIFT) | slot as u64
    }

    #[inline]
    fn slot_mut(&mut self, handle: u64) -> &mut ValueRecord {
        &mut self.pages[(handle >> PAGE_SHIFT) as usize].slots[(handle & SLOT_MASK) as usize]
    }

    #[inline]
    fn replace(&mut self, handle: u64, record: ValueRecord) -> ValueRecord {
        let page = &mut self.pages[(handle >> PAGE_SHIFT) as usize];
        page.min_bound = page.min_bound.min(record.deepest_use);
        std::mem::replace(&mut page.slots[(handle & SLOT_MASK) as usize], record)
    }

    #[inline]
    fn insert(&mut self, addr: u64, record: ValueRecord) -> Option<ValueRecord> {
        let (page_no, slot) = split(addr);
        let idx = self.page_index_or_create(page_no) as usize;
        let page = &mut self.pages[idx];
        let bit = 1u64 << slot;
        page.min_bound = page.min_bound.min(record.deepest_use);
        if page.occupied & bit != 0 {
            Some(std::mem::replace(&mut page.slots[slot], record))
        } else {
            page.occupied |= bit;
            page.slots[slot] = record;
            self.len += 1;
            None
        }
    }

    fn remove(&mut self, addr: u64) -> Option<ValueRecord> {
        let (page_no, slot) = split(addr);
        let idx = self.page_index(page_no)?;
        let page = &mut self.pages[idx as usize];
        let bit = 1u64 << slot;
        if page.occupied & bit == 0 {
            return None;
        }
        page.occupied &= !bit;
        self.len -= 1;
        let old = page.slots[slot];
        if page.occupied == 0 {
            page.min_bound = i64::MAX;
            self.dir.remove(&page_no);
            self.free.push(idx);
            for entry in &self.cache_page_no {
                if entry.get() == page_no {
                    entry.set(NO_PAGE);
                }
            }
        }
        // A non-empty page's min_bound may now be stale-low (the removed
        // record could have been the minimum); stale-low is still a valid
        // lower bound, so eviction stays exact.
        Some(old)
    }

    fn for_each_sorted<F: FnMut(u64, &ValueRecord)>(&self, mut f: F) {
        // Sorting P page numbers replaces the flat table's sort of all N
        // addresses (N up to 64·P) — a checkpoint-path win on top of the
        // hot-path one.
        let mut page_nos: Vec<u64> = self.dir.keys().copied().collect();
        page_nos.sort_unstable();
        for page_no in page_nos {
            let Some(&idx) = self.dir.get(&page_no) else {
                continue;
            };
            let page = &self.pages[idx as usize];
            let mut bits = page.occupied;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f((page_no << PAGE_SHIFT) | slot as u64, &page.slots[slot]);
            }
        }
    }

    fn for_each_value<F: FnMut(&ValueRecord)>(&self, mut f: F) {
        for &idx in self.dir.values() {
            let page = &self.pages[idx as usize];
            let mut bits = page.occupied;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(&page.slots[slot]);
            }
        }
    }

    fn evict_coldest<F: FnMut(ValueRecord)>(&mut self, excess: usize, mut retire: F) -> u64 {
        if excess == 0 || self.len == 0 {
            return 0;
        }
        let excess = excess.min(self.len);
        // Rank pages by their summaries, coldest lower bound first.
        let mut ranked: Vec<(i64, u64, u32)> = self
            .dir
            .iter()
            .map(|(&page_no, &idx)| (self.pages[idx as usize].min_bound, page_no, idx))
            .collect();
        ranked.sort_unstable();
        // Scan pages in summary order, accumulating (deepest_use, addr)
        // candidates, until the k-th coldest candidate is strictly below
        // every unscanned page's lower bound. Ties must keep scanning: an
        // unscanned page with min_bound == threshold could hold an entry
        // that wins the address tie-break. Stale-low bounds only make this
        // scan longer, never wrong.
        let mut candidates: Vec<(i64, u64)> = Vec::new();
        for &(bound, page_no, idx) in &ranked {
            if candidates.len() >= excess {
                let (_, &mut kth, _) = candidates.select_nth_unstable(excess - 1);
                if kth.0 < bound {
                    break;
                }
            }
            let page = &mut self.pages[idx as usize];
            let mut true_min = i64::MAX;
            let mut bits = page.occupied;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let deepest = page.slots[slot].deepest_use;
                true_min = true_min.min(deepest);
                candidates.push((deepest, (page_no << PAGE_SHIFT) | slot as u64));
            }
            // The scan computed the exact minimum: refresh the summary.
            page.min_bound = true_min;
        }
        if excess < candidates.len() {
            candidates.select_nth_unstable(excess - 1);
            candidates.truncate(excess);
        }
        let mut evicted = 0u64;
        for &(_, addr) in &candidates {
            if let Some(old) = self.remove(addr) {
                retire(old);
                evicted += 1;
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Deterministic splitmix64 — the tests' only randomness source.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    fn record(avail: i64, deepest_use: i64, readers: u32) -> ValueRecord {
        ValueRecord {
            readers,
            avail,
            deepest_use,
        }
    }

    /// Draws an address from a mix of the patterns real traces show:
    /// a dense "stack" window, strided "heap" arrays, page-boundary
    /// straddlers, and sparse far-flung globals.
    fn draw_addr(rng: &mut Rng) -> u64 {
        match rng.below(8) {
            // Dense stack frame: one hot page plus neighbors.
            0..=2 => 0x7fff_f000 + rng.below(192),
            // Strided heap array: 8-byte stride across many pages.
            3..=4 => 0x1000_0000 + 8 * rng.below(4096),
            // Page-boundary straddle: addresses right around a multiple
            // of the 64-slot page, exercising slot 63 -> slot 0 handoff.
            5 => 0x2000_0000 + 64 * rng.below(16) + 62 + rng.below(4),
            // Sparse globals anywhere in the address space.
            6 => rng.next(),
            // Reuse of a tiny working set, forcing overwrites.
            _ => rng.below(16),
        }
    }

    /// Dumps a table in sorted-address order.
    fn dump<M: MemTable>(table: &M) -> Vec<(u64, ValueRecord)> {
        let mut out = Vec::new();
        table.for_each_sorted(|addr, rec| out.push((addr, *rec)));
        out
    }

    /// Reference model: plain `std` HashMap plus the spec's eviction rule
    /// (sort everything, drop the `excess` smallest `(deepest_use, addr)`).
    #[derive(Default)]
    struct Model {
        map: HashMap<u64, ValueRecord>,
    }

    impl Model {
        fn evict_coldest(&mut self, excess: usize) -> Vec<ValueRecord> {
            let mut all: Vec<(i64, u64)> =
                self.map.iter().map(|(&a, r)| (r.deepest_use, a)).collect();
            all.sort_unstable();
            all.truncate(excess);
            all.iter()
                .filter_map(|&(_, addr)| self.map.remove(&addr))
                .collect()
        }

        fn dump(&self) -> Vec<(u64, ValueRecord)> {
            let mut out: Vec<(u64, ValueRecord)> = self.map.iter().map(|(&a, &r)| (a, r)).collect();
            out.sort_unstable_by_key(|&(a, _)| a);
            out
        }
    }

    /// Property: under randomized op streams over realistic address
    /// patterns, `PagedWell` and `FlatWell` stay observation-equivalent to
    /// the HashMap reference model — same contents, same eviction sets.
    #[test]
    fn paged_well_matches_reference_model_under_random_ops() {
        for seed in 0..12u64 {
            let mut rng = Rng(0xc0ffee ^ (seed << 17));
            let mut paged = PagedWell::default();
            let mut flat = FlatWell::default();
            let mut model = Model::default();
            for step in 0..4000u64 {
                let addr = draw_addr(&mut rng);
                match rng.below(10) {
                    // Read-side: get-or-insert-preexisting, then deepen.
                    0..=4 => {
                        let level = step as i64 % 997;
                        for entry in [
                            paged.get_or_insert_preexisting(addr),
                            flat.get_or_insert_preexisting(addr),
                            model
                                .map
                                .entry(addr)
                                .or_insert_with(ValueRecord::preexisting),
                        ] {
                            entry.deepest_use = entry.deepest_use.max(level);
                            entry.readers = entry.readers.saturating_add(1);
                        }
                    }
                    // Write-side: insert a fresh record.
                    5..=7 => {
                        let level = step as i64 % 1013;
                        let rec = record(level, level, 0);
                        let a = paged.insert(addr, rec);
                        let b = flat.insert(addr, rec);
                        let c = model.map.insert(addr, rec);
                        assert_eq!(a, c, "paged insert displaced wrong record");
                        assert_eq!(b, c, "flat insert displaced wrong record");
                    }
                    // Point lookups agree.
                    8 => {
                        assert_eq!(paged.get(addr), model.map.get(&addr));
                        assert_eq!(flat.get(addr), model.map.get(&addr));
                    }
                    // Eviction: the sets must match exactly.
                    _ => {
                        let excess = rng.below(48) as usize;
                        let mut from_paged = Vec::new();
                        let mut from_flat = Vec::new();
                        paged.evict_coldest(excess, |r| from_paged.push(r));
                        flat.evict_coldest(excess, |r| from_flat.push(r));
                        let mut expect = model.evict_coldest(excess);
                        // Retirement order is unspecified (the consumers are
                        // histograms); compare as multisets.
                        let key = |r: &ValueRecord| (r.deepest_use, r.avail, r.readers);
                        from_paged.sort_unstable_by_key(key);
                        from_flat.sort_unstable_by_key(key);
                        expect.sort_unstable_by_key(key);
                        assert_eq!(from_paged, expect, "paged eviction set diverged");
                        assert_eq!(from_flat, expect, "flat eviction set diverged");
                    }
                }
                assert_eq!(paged.len(), model.map.len());
                assert_eq!(flat.len(), model.map.len());
            }
            assert_eq!(dump(&paged), model.dump(), "seed {seed}: paged contents");
            assert_eq!(dump(&flat), model.dump(), "seed {seed}: flat contents");
        }
    }

    #[test]
    fn sorted_iteration_crosses_page_boundaries_in_order() {
        let mut paged = PagedWell::default();
        // Straddle three pages, inserted out of order.
        for addr in [191u64, 64, 127, 128, 63, 0, 65] {
            paged.insert(addr, record(0, addr as i64, 0));
        }
        let addrs: Vec<u64> = dump(&paged).iter().map(|&(a, _)| a).collect();
        assert_eq!(addrs, vec![0, 63, 64, 65, 127, 128, 191]);
    }

    #[test]
    fn eviction_prefers_cold_entries_and_respects_address_tiebreak() {
        let mut paged = PagedWell::default();
        // Two entries tied at deepest_use = 5 on different pages: the
        // smaller address must lose the tie-break, even though its page's
        // summary is scanned later (page 100 ranks after page 0's bound).
        paged.insert(3, record(0, 5, 0)); // page 0
        paged.insert(100 * 64 + 1, record(0, 5, 0)); // page 100
        paged.insert(7, record(0, 1, 0)); // page 0, coldest
        let mut evicted_addrs = Vec::new();
        paged.evict_coldest(2, |r| evicted_addrs.push(r.deepest_use));
        // Coldest (deepest_use 1), then the tie at 5 won by address 3.
        assert_eq!(paged.len(), 1);
        assert_eq!(paged.get(100 * 64 + 1).map(|r| r.deepest_use), Some(5));
        assert_eq!(paged.get(3), None);
        assert_eq!(paged.get(7), None);
    }

    #[test]
    fn stale_low_summaries_never_break_eviction_exactness() {
        let mut paged = PagedWell::default();
        // Make page 0's summary stale-low: insert a cold record, then
        // deepen it through the read-side path without touching the bound.
        paged.insert(1, record(0, 0, 0));
        let entry = paged.get_or_insert_preexisting(1);
        entry.deepest_use = 100; // page 0's min_bound still says 0
        paged.insert(64 + 1, record(0, 50, 0)); // page 1, truly coldest
        let mut evicted = Vec::new();
        paged.evict_coldest(1, |r| evicted.push(r.deepest_use));
        assert_eq!(evicted, vec![50], "must evict the true coldest entry");
        // The scan refreshed page 0's summary to the true minimum.
        assert_eq!(paged.get(1).map(|r| r.deepest_use), Some(100));
    }

    #[test]
    fn empty_pages_are_recycled_through_the_free_list() {
        let mut paged = PagedWell::default();
        for addr in 0..64u64 {
            paged.insert(addr, record(0, 0, 0));
        }
        assert_eq!(paged.pages.len(), 1);
        paged.evict_coldest(64, |_| {});
        assert_eq!(paged.len(), 0);
        assert_eq!(paged.free.len(), 1, "emptied page must be freed");
        // A page elsewhere reuses the freed slot instead of growing the pool.
        paged.insert(1 << 40, record(0, 0, 0));
        assert_eq!(paged.pages.len(), 1);
        assert!(paged.free.is_empty());
        assert_eq!(paged.get(1 << 40).map(|r| r.avail), Some(0));
    }

    #[test]
    fn hot_page_cache_is_invalidated_when_its_page_is_freed() {
        let mut paged = PagedWell::default();
        paged.insert(10, record(0, 0, 0));
        assert!(paged.get(10).is_some()); // cache now points at page 0
        assert_eq!(paged.remove(10).map(|r| r.avail), Some(0));
        // A lookup through a stale cache entry would index a freed page.
        assert_eq!(paged.get(10), None);
        assert_eq!(paged.remove(11), None);
        paged.insert(1 << 30, record(0, 3, 0)); // reuses the freed page slot
        assert_eq!(paged.get(10), None, "old page's addresses must miss");
    }

    #[test]
    fn highest_addresses_do_not_collide_with_the_cache_sentinel() {
        let mut paged = PagedWell::default();
        let top = u64::MAX; // page number u64::MAX >> 6, slot 63
        paged.insert(top, record(0, 9, 0));
        assert_eq!(paged.get(top).map(|r| r.deepest_use), Some(9));
        assert_eq!(paged.len(), 1);
        let mut seen = Vec::new();
        paged.for_each_sorted(|a, _| seen.push(a));
        assert_eq!(seen, vec![top]);
    }

    #[test]
    fn evicting_more_than_resident_clears_the_table() {
        for excess in [5usize, 64, 1000] {
            let mut paged = PagedWell::default();
            for addr in 0..5u64 {
                paged.insert(1000 * addr, record(0, addr as i64, 0));
            }
            let evicted = paged.evict_coldest(excess, |_| {});
            assert_eq!(evicted, 5);
            assert_eq!(paged.len(), 0);
            assert!(paged.is_empty());
        }
    }
}
