//! Arena-allocated clause storage.
//!
//! All clauses live in one flat `Vec<u32>`; a [`ClauseRef`] is the word
//! offset of a clause header inside that vector. Compared to boxing each
//! clause in its own `Vec<Lit>`, this removes one pointer chase and one heap
//! allocation per clause, keeps clauses that are propagated together close
//! in memory, and makes garbage collection a single linear compaction pass.
//!
//! # Layout
//!
//! Each clause occupies `HEADER_WORDS + capacity` words:
//!
//! ```text
//! word 0: size << 3 | learnt (bit 0) | deleted (bit 1) | forwarded (bit 2)
//! word 1: capacity at allocation time (shrinking keeps it, GC resets it)
//! word 2: LBD (learnt clauses) — doubles as the forwarding address during GC
//! word 3: f32 activity bits (learnt clauses)
//! word 4…: literal codes
//! ```
//!
//! `size` is the live literal count; `capacity` is the allocated span, so
//! in-place strengthening just decrements `size` and the dead tail is
//! reclaimed by the next collection. Freeing a clause sets the `deleted`
//! bit; the words are reclaimed — and every live [`ClauseRef`] rewritten —
//! only when [`ClauseArena::collect`] runs.

use crate::lit::Lit;

/// Word offset of a clause header in the arena. Stable until the next
/// [`ClauseArena::collect`], which hands out a [`GcMap`] to translate old
/// refs to new ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ClauseRef(pub(crate) u32);

/// A watch-list entry: the clause plus a "blocker" literal whose truth lets
/// propagation skip loading the clause at all.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Watcher {
    pub(crate) clause: ClauseRef,
    pub(crate) blocker: Lit,
}

pub(crate) const HEADER_WORDS: usize = 4;

const LEARNT_BIT: u32 = 1;
const DELETED_BIT: u32 = 1 << 1;
const FORWARDED_BIT: u32 = 1 << 2;
const SIZE_SHIFT: u32 = 3;

#[derive(Debug, Clone, Default)]
pub(crate) struct ClauseArena {
    data: Vec<u32>,
    /// Words occupied by freed clauses and shrunk tails, reclaimable by
    /// [`ClauseArena::collect`].
    wasted: usize,
    /// Clause headers currently in the arena, live or tombstoned.
    headers: usize,
}

impl ClauseArena {
    pub(crate) fn new() -> Self {
        ClauseArena::default()
    }

    /// Allocates a clause and returns its reference.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() < (1 << 28), "clause size fits the header");
        let cref = ClauseRef(self.data.len() as u32);
        let flags = ((lits.len() as u32) << SIZE_SHIFT) | if learnt { LEARNT_BIT } else { 0 };
        self.data.push(flags);
        self.data.push(lits.len() as u32); // capacity
        self.data.push(0); // lbd
        self.data.push(0f32.to_bits()); // activity
        self.data.extend(lits.iter().map(|l| l.0));
        self.headers += 1;
        cref
    }

    #[inline]
    fn word0(&self, c: ClauseRef) -> u32 {
        self.data[c.0 as usize]
    }

    #[inline]
    pub(crate) fn len(&self, c: ClauseRef) -> usize {
        (self.word0(c) >> SIZE_SHIFT) as usize
    }

    #[inline]
    fn capacity(&self, c: ClauseRef) -> usize {
        self.data[c.0 as usize + 1] as usize
    }

    #[inline]
    pub(crate) fn is_learnt(&self, c: ClauseRef) -> bool {
        self.word0(c) & LEARNT_BIT != 0
    }

    #[inline]
    pub(crate) fn is_deleted(&self, c: ClauseRef) -> bool {
        self.word0(c) & DELETED_BIT != 0
    }

    #[inline]
    pub(crate) fn lit(&self, c: ClauseRef, i: usize) -> Lit {
        debug_assert!(i < self.len(c));
        Lit(self.data[c.0 as usize + HEADER_WORDS + i])
    }

    #[inline]
    pub(crate) fn set_lit(&mut self, c: ClauseRef, i: usize, lit: Lit) {
        debug_assert!(i < self.len(c));
        self.data[c.0 as usize + HEADER_WORDS + i] = lit.0;
    }

    #[inline]
    pub(crate) fn swap_lits(&mut self, c: ClauseRef, i: usize, j: usize) {
        let base = c.0 as usize + HEADER_WORDS;
        self.data.swap(base + i, base + j);
    }

    /// Iterates the clause's literals.
    pub(crate) fn lits(&self, c: ClauseRef) -> impl Iterator<Item = Lit> + '_ {
        let base = c.0 as usize + HEADER_WORDS;
        self.data[base..base + self.len(c)].iter().map(|&w| Lit(w))
    }

    /// Shrinks the clause to its first `new_len` literals. The freed tail
    /// counts as wasted space until the next collection.
    pub(crate) fn shrink(&mut self, c: ClauseRef, new_len: usize) {
        let old_len = self.len(c);
        debug_assert!(new_len <= old_len);
        if new_len == old_len {
            return;
        }
        let i = c.0 as usize;
        self.data[i] = (self.data[i] & ((1 << SIZE_SHIFT) - 1)) | ((new_len as u32) << SIZE_SHIFT);
        self.wasted += old_len - new_len;
    }

    #[inline]
    pub(crate) fn lbd(&self, c: ClauseRef) -> u32 {
        self.data[c.0 as usize + 2]
    }

    #[inline]
    pub(crate) fn set_lbd(&mut self, c: ClauseRef, lbd: u32) {
        self.data[c.0 as usize + 2] = lbd;
    }

    #[inline]
    pub(crate) fn activity(&self, c: ClauseRef) -> f32 {
        f32::from_bits(self.data[c.0 as usize + 3])
    }

    #[inline]
    pub(crate) fn set_activity(&mut self, c: ClauseRef, act: f32) {
        self.data[c.0 as usize + 3] = act.to_bits();
    }

    /// Tombstones the clause; its words are reclaimed by the next
    /// [`ClauseArena::collect`].
    pub(crate) fn free(&mut self, c: ClauseRef) {
        debug_assert!(!self.is_deleted(c));
        self.data[c.0 as usize] |= DELETED_BIT;
        self.wasted += HEADER_WORDS + self.capacity(c);
    }

    /// All clause refs in allocation order, live and tombstoned.
    pub(crate) fn refs(&self) -> ArenaIter<'_> {
        ArenaIter {
            arena: self,
            offset: 0,
        }
    }

    /// Fraction of arena words occupied by tombstones and shrunk tails.
    pub(crate) fn wasted_fraction(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.wasted as f64 / self.data.len() as f64
        }
    }

    /// Live + tombstoned header count (O(1); the observability snapshot
    /// uses this where a live-only scan would be too slow).
    pub(crate) fn num_headers(&self) -> usize {
        self.headers
    }

    /// Logical bytes the arena occupies: words appended so far (headers,
    /// literals, and not-yet-collected tombstones), independent of `Vec`
    /// capacity growth policy — see `Solver::logical_bytes` for why logical
    /// rather than physical bytes.
    pub(crate) fn logical_bytes(&self) -> u64 {
        self.data.len() as u64 * 4
    }

    /// Compacts the arena: live clauses move to the front of a fresh
    /// buffer, preserving allocation order, with `capacity` reset to `size`.
    /// Returns a [`GcMap`] translating pre-collection refs; the caller must
    /// rewrite every stored [`ClauseRef`] (watch lists, reason slots)
    /// through it. Relocation never reorders clauses or literals, so search
    /// behaviour is byte-for-byte unaffected by when collection runs.
    pub(crate) fn collect(&mut self) -> GcMap {
        let mut new_data = Vec::with_capacity(self.data.len().saturating_sub(self.wasted));
        let mut headers = 0usize;
        let mut off = 0usize;
        while off < self.data.len() {
            let w0 = self.data[off];
            let size = (w0 >> SIZE_SHIFT) as usize;
            let cap = self.data[off + 1] as usize;
            if w0 & DELETED_BIT == 0 {
                let new_off = new_data.len() as u32;
                new_data.push(w0);
                new_data.push(size as u32); // capacity := size
                new_data.extend_from_slice(&self.data[off + 2..off + HEADER_WORDS + size]);
                headers += 1;
                // Forwarding address for the GcMap, written into the old
                // buffer (word 2 is dead once the clause has been copied).
                self.data[off] = w0 | FORWARDED_BIT;
                self.data[off + 2] = new_off;
            }
            off += HEADER_WORDS + cap;
        }
        let old = std::mem::replace(&mut self.data, new_data);
        self.wasted = 0;
        self.headers = headers;
        GcMap { old }
    }
}

/// Translates pre-collection [`ClauseRef`]s to their post-collection
/// locations. Refs of clauses that were tombstoned map to `None`.
pub(crate) struct GcMap {
    old: Vec<u32>,
}

impl GcMap {
    pub(crate) fn remap(&self, c: ClauseRef) -> Option<ClauseRef> {
        let i = c.0 as usize;
        (self.old[i] & FORWARDED_BIT != 0).then(|| ClauseRef(self.old[i + 2]))
    }
}

pub(crate) struct ArenaIter<'a> {
    arena: &'a ClauseArena,
    offset: usize,
}

impl Iterator for ArenaIter<'_> {
    type Item = ClauseRef;

    fn next(&mut self) -> Option<ClauseRef> {
        if self.offset >= self.arena.data.len() {
            return None;
        }
        let cref = ClauseRef(self.offset as u32);
        self.offset += HEADER_WORDS + self.arena.capacity(cref);
        Some(cref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n)
    }

    #[test]
    fn alloc_and_read_back() {
        let mut arena = ClauseArena::new();
        let a = arena.alloc(&[lit(1), lit(-2), lit(3)], false);
        let b = arena.alloc(&[lit(4), lit(5)], true);
        assert_eq!(arena.len(a), 3);
        assert_eq!(arena.len(b), 2);
        assert!(!arena.is_learnt(a));
        assert!(arena.is_learnt(b));
        assert_eq!(
            arena.lits(a).collect::<Vec<_>>(),
            vec![lit(1), lit(-2), lit(3)]
        );
        assert_eq!(arena.lit(b, 1), lit(5));
        assert_eq!(arena.num_headers(), 2);
    }

    #[test]
    fn lbd_and_activity_round_trip() {
        let mut arena = ClauseArena::new();
        let c = arena.alloc(&[lit(1), lit(2)], true);
        arena.set_lbd(c, 7);
        arena.set_activity(c, 3.5);
        assert_eq!(arena.lbd(c), 7);
        assert_eq!(arena.activity(c), 3.5);
    }

    #[test]
    fn swap_and_set_lits() {
        let mut arena = ClauseArena::new();
        let c = arena.alloc(&[lit(1), lit(2), lit(3)], false);
        arena.swap_lits(c, 0, 2);
        assert_eq!(
            arena.lits(c).collect::<Vec<_>>(),
            vec![lit(3), lit(2), lit(1)]
        );
        arena.set_lit(c, 1, lit(-9));
        assert_eq!(arena.lit(c, 1), lit(-9));
    }

    #[test]
    fn shrink_keeps_prefix_and_counts_waste() {
        let mut arena = ClauseArena::new();
        let c = arena.alloc(&[lit(1), lit(2), lit(3), lit(4)], false);
        arena.shrink(c, 2);
        assert_eq!(arena.len(c), 2);
        assert_eq!(arena.lits(c).collect::<Vec<_>>(), vec![lit(1), lit(2)]);
        assert!(arena.wasted_fraction() > 0.0);
    }

    #[test]
    fn free_tombstones_and_collect_compacts() {
        let mut arena = ClauseArena::new();
        let a = arena.alloc(&[lit(1), lit(2)], false);
        let b = arena.alloc(&[lit(3), lit(4), lit(5)], true);
        let c = arena.alloc(&[lit(6), lit(7)], false);
        arena.set_lbd(b, 2);
        arena.set_activity(b, 1.25);
        arena.free(a);
        assert!(arena.is_deleted(a));
        assert_eq!(arena.num_headers(), 3);

        let map = arena.collect();
        assert_eq!(map.remap(a), None);
        let nb = map.remap(b).expect("b survives");
        let nc = map.remap(c).expect("c survives");
        assert_eq!(arena.num_headers(), 2);
        assert_eq!(arena.wasted_fraction(), 0.0);
        assert_eq!(
            arena.lits(nb).collect::<Vec<_>>(),
            vec![lit(3), lit(4), lit(5)]
        );
        assert_eq!(arena.lits(nc).collect::<Vec<_>>(), vec![lit(6), lit(7)]);
        assert_eq!(arena.lbd(nb), 2);
        assert_eq!(arena.activity(nb), 1.25);
        assert!(arena.is_learnt(nb));
        assert!(!arena.is_learnt(nc));
        // Allocation order is preserved by compaction.
        let order: Vec<ClauseRef> = arena.refs().collect();
        assert_eq!(order, vec![nb, nc]);
    }

    #[test]
    fn collect_reclaims_shrunk_tails() {
        let mut arena = ClauseArena::new();
        let a = arena.alloc(&[lit(1), lit(2), lit(3), lit(4), lit(5)], false);
        arena.shrink(a, 2);
        let map = arena.collect();
        let na = map.remap(a).unwrap();
        assert_eq!(arena.len(na), 2);
        assert_eq!(arena.wasted_fraction(), 0.0);
        // A second collect on an already-compact arena is a no-op move.
        let map2 = arena.collect();
        assert_eq!(map2.remap(na), Some(ClauseRef(0)));
    }

    #[test]
    fn refs_walks_all_headers_including_tombstones() {
        let mut arena = ClauseArena::new();
        let a = arena.alloc(&[lit(1), lit(2)], false);
        let b = arena.alloc(&[lit(3), lit(4)], false);
        arena.free(b);
        let all: Vec<ClauseRef> = arena.refs().collect();
        assert_eq!(all, vec![a, b]);
        assert!(!arena.is_deleted(a));
        assert!(arena.is_deleted(b));
    }
}
