//! Open-addressed hash structures for the per-access hot path.
//!
//! The machine keeps two `u64`-keyed populations: in-flight DRAM fills,
//! keyed by line and probed at least once per L2 miss and once per prefetch
//! candidate, and LLC pollution victims, keyed by 4 KB page with a 64-bit
//! mask of victim lines as the value. Both previously lived in
//! `std::collections` tables behind an Fx hasher; the generic SwissTable
//! machinery — `Option`-wrapped buckets, hasher plumbing, group scans —
//! costs more than the probe itself for 8-byte keys.
//!
//! [`LineTable`] replaces them with the simplest structure that wins: a
//! power-of-two slab of `u64` keys (multiply-shift hashed), linear probing,
//! and backward-shift deletion (no tombstones, so heavy insert/remove churn
//! — millions of fills over a few hundred live entries — never degrades
//! probe lengths). Capacity is seeded by the owner and doubles at 1/2 load
//! — plain linear probing wants the headroom (there is no SIMD group scan
//! to ride out long clusters).
//!
//! The populations are not always small: L1 stride-prefetch fills reach
//! DRAM without an MSHR bound, and on a saturating stream they queue
//! 183k deep, growing the fill table to 2^19 slots (20 MiB of keys and
//! values). So a table also halves when a removal leaves it below 1/8
//! load, never below its seeded slot count. A halved table sits below 1/4
//! load, well clear of the 1/2 growth point, so a population hovering at
//! either threshold cannot make the table flip between sizes; and once a
//! backlog drains, every probe lands in a cache-resident slab again.
//! Contents never depend on capacity, so neither does any simulated
//! statistic.
//!
//! Keys are cache-line or page numbers (byte address >> 6 or >> 12), which
//! can never equal the reserved [`EMPTY`] sentinel of `u64::MAX`.

/// Reserved key marking an unoccupied slot.
const EMPTY: u64 = u64::MAX;

/// Multiplicative hash constant (same mix the RR-table and PHT hashes use).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Result of probing a [`LineTable`] for a key that may need inserting.
pub enum Slot<'a, V> {
    /// The key is present; the value can be updated in place.
    Occupied(&'a mut V),
    /// The key is absent.
    Vacant(VacantSlot<'a, V>),
}

/// An insertion point returned by [`LineTable::slot`] for an absent key.
pub struct VacantSlot<'a, V> {
    table: &'a mut LineTable<V>,
    key: u64,
    index: usize,
}

impl<V: Copy> VacantSlot<'_, V> {
    /// Inserts `value` for the probed key.
    pub fn insert(self, value: V) {
        self.table.keys[self.index] = self.key;
        self.table.vals[self.index] = value;
        self.table.len += 1;
        if self.table.len * 2 > self.table.keys.len() {
            self.table.resize(self.table.keys.len() * 2);
        }
    }
}

/// An open-addressed `u64 → V` map specialized for line- and page-number keys.
#[derive(Debug, Clone)]
pub struct LineTable<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
    /// `keys.len() - 1`; the capacity is always a power of two.
    mask: usize,
    /// Right-shift applied to the hash product: `64 - log2(capacity)`.
    shift: u32,
    len: usize,
    /// The slot count the table was created with; it never shrinks below.
    seed_slots: usize,
    /// A copy of the default value used to (re)initialize slots.
    fill: V,
}

impl<V: Copy> LineTable<V> {
    /// Creates a table with room for at least `capacity` entries before the
    /// first growth (sized up to the next power of two at 1/2 load).
    pub fn with_capacity(capacity: usize, fill: V) -> Self {
        Self::with_slots((capacity.max(8) * 2).next_power_of_two(), fill)
    }

    fn with_slots(slots: usize, fill: V) -> Self {
        Self {
            keys: vec![EMPTY; slots],
            vals: vec![fill; slots],
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
            seed_slots: slots,
            fill,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry and returns to the seeded slot count, releasing
    /// whatever a backlog grew. O(seeded capacity).
    pub(crate) fn reset(&mut self) {
        *self = Self::with_slots(self.seed_slots, self.fill);
    }

    /// Current slot count (a power of two).
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(MIX) >> self.shift) as usize
    }

    /// Index of `key`'s slot if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        debug_assert_ne!(key, EMPTY, "key aliases the empty sentinel");
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Mutable access to `key`'s value, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|i| &mut self.vals[i])
    }

    /// Probes `key`, returning either the occupied value or an insertion
    /// point — one hash, one probe sequence, like the `HashMap` entry API.
    #[inline]
    pub fn slot(&mut self, key: u64) -> Slot<'_, V> {
        debug_assert_ne!(key, EMPTY, "key aliases the empty sentinel");
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Slot::Occupied(&mut self.vals[i]);
            }
            if k == EMPTY {
                return Slot::Vacant(VacantSlot {
                    table: self,
                    key,
                    index: i,
                });
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts `value` under `key`, replacing (and returning) any previous
    /// value.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.slot(key) {
            Slot::Occupied(v) => Some(std::mem::replace(v, value)),
            Slot::Vacant(slot) => {
                slot.insert(value);
                None
            }
        }
    }

    /// Removes `key`, returning its value if it was present. Uses
    /// backward-shift deletion: the probe chain after the hole is compacted
    /// so no tombstone is left behind.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let slot = self.find(key)?;
        let value = self.vals[slot];
        self.keys[slot] = EMPTY;
        self.len -= 1;
        // Compact the cluster following the hole.
        let mut hole = slot;
        let mut i = (slot + 1) & self.mask;
        while self.keys[i] != EMPTY {
            let home = self.home(self.keys[i]);
            // Move the entry into the hole unless its home position lies in
            // the cyclic range (hole, i] — in which case the hole does not
            // break its probe chain.
            let in_range = if hole <= i {
                hole < home && home <= i
            } else {
                hole < home || home <= i
            };
            if !in_range {
                self.keys[hole] = self.keys[i];
                self.vals[hole] = self.vals[i];
                self.keys[i] = EMPTY;
                hole = i;
            }
            i = (i + 1) & self.mask;
        }
        if self.len * 8 < self.keys.len() && self.keys.len() > self.seed_slots {
            self.resize(self.keys.len() / 2);
        }
        Some(value)
    }

    /// Rehashes every entry into a fresh slab of `new_slots` slots.
    #[cold]
    fn resize(&mut self, new_slots: usize) {
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![self.fill; new_slots]);
        self.mask = new_slots - 1;
        self.shift = 64 - new_slots.trailing_zeros();
        for (key, val) in old_keys.into_iter().zip(old_vals) {
            if key == EMPTY {
                continue;
            }
            let mut i = self.home(key);
            while self.keys[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.keys[i] = key;
            self.vals[i] = val;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state
    }

    /// Differential-tests the table against `std::collections::HashMap`
    /// through a long, deterministic insert/remove/update churn with a
    /// deliberately clustered key distribution, then through repeated
    /// backlog phases that grow it far past its seed and drain it empty.
    #[test]
    fn behaves_like_a_hash_map_under_churn() {
        let mut table: LineTable<u64> = LineTable::with_capacity(16, 0);
        let seeded = table.slots();
        let mut reference = std::collections::HashMap::new();
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        for step in 0..200_000u64 {
            let state = lcg(&mut state);
            // Cluster keys into a small range so probe chains actually form.
            let key = (state >> 48) % 4096;
            match state % 4 {
                0 | 1 => {
                    assert_eq!(table.insert(key, step), reference.insert(key, step));
                }
                2 => {
                    assert_eq!(table.remove(key), reference.remove(&key));
                }
                _ => match table.slot(key) {
                    Slot::Occupied(v) => {
                        *v += 1;
                        *reference.get_mut(&key).expect("reference agrees") += 1;
                    }
                    Slot::Vacant(slot) => {
                        assert!(!reference.contains_key(&key));
                        slot.insert(step);
                        reference.insert(key, step);
                    }
                },
            }
            assert_eq!(table.len(), reference.len());
        }
        for (&key, &val) in &reference {
            assert_eq!(table.get_mut(key).copied(), Some(val));
        }

        for phase in 0..4u64 {
            let mut live: Vec<u64> = reference.keys().copied().collect();
            live.sort_unstable();
            while reference.len() < 50_000 {
                let key = lcg(&mut state) >> 40;
                let previous = reference.insert(key, phase);
                assert_eq!(table.insert(key, phase), previous);
                if previous.is_none() {
                    live.push(key);
                }
            }
            assert!(table.slots() > seeded);
            for (i, &key) in live.iter().enumerate() {
                assert_eq!(table.remove(key), reference.remove(&key));
                assert_eq!(table.remove(key), None);
                assert_eq!(table.len(), reference.len());
                if i % 1000 == 0 {
                    for &later in live[i + 1..].iter().take(16) {
                        assert_eq!(
                            table.get_mut(later).copied(),
                            reference.get(&later).copied()
                        );
                    }
                }
            }
            assert!(table.is_empty());
            assert_eq!(table.slots(), seeded, "drained table shrinks to its seed");
        }
    }

    /// Walks the live count to `target`, inserting fresh keys or removing
    /// the oldest, and returns how many times the slot count changed.
    fn walk_to(
        table: &mut LineTable<u64>,
        live: &mut std::collections::VecDeque<u64>,
        next_key: &mut u64,
        target: usize,
    ) -> usize {
        let mut resizes = 0;
        while live.len() != target {
            let before = table.slots();
            if live.len() < target {
                table.insert(*next_key, 0);
                live.push_back(*next_key);
                *next_key += 1;
            } else {
                let key = live.pop_front().expect("live count above target");
                assert_eq!(table.remove(key), Some(0));
            }
            resizes += usize::from(table.slots() != before);
        }
        resizes
    }

    /// A live count oscillating across either resize threshold resizes the
    /// table once, not once per crossing: a shrink lands below 1/4 load and
    /// a growth at 1/4 load, so neither brings the other's threshold near.
    #[test]
    fn resizing_has_hysteresis() {
        let mut table: LineTable<u64> = LineTable::with_capacity(8, 0);
        let mut live = std::collections::VecDeque::new();
        let mut next_key = 0;
        walk_to(&mut table, &mut live, &mut next_key, 1000);
        let grown = table.slots();

        let shrink_at = grown / 8;
        let mut resizes = 0;
        for _ in 0..1000 {
            resizes += walk_to(&mut table, &mut live, &mut next_key, shrink_at - 4);
            resizes += walk_to(&mut table, &mut live, &mut next_key, shrink_at + 4);
        }
        assert_eq!(resizes, 1);
        assert_eq!(table.slots(), grown / 2);

        let grow_at = table.slots() / 2;
        let mut resizes = 0;
        for _ in 0..1000 {
            resizes += walk_to(&mut table, &mut live, &mut next_key, grow_at + 4);
            resizes += walk_to(&mut table, &mut live, &mut next_key, grow_at - 4);
        }
        assert_eq!(resizes, 1);
        assert_eq!(table.slots(), grown);
        for &key in &live {
            assert_eq!(table.get_mut(key).copied(), Some(0));
        }
    }

    #[test]
    fn backward_shift_keeps_probe_chains_reachable() {
        // Force one probe cluster: capacity 16 stays fixed (no growth at 8
        // entries), keys engineered to collide would need hash inversion, so
        // instead fill enough keys that clusters arise, then delete from the
        // middle and verify every survivor is still found.
        let mut table: LineTable<usize> = LineTable::with_capacity(64, 0);
        let keys: Vec<u64> = (0..56).map(|i| i * 131).collect();
        for (i, &k) in keys.iter().enumerate() {
            table.insert(k, i);
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(table.remove(k), Some(i));
            }
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(table.get_mut(k), None);
            } else {
                assert_eq!(table.get_mut(k).copied(), Some(i));
            }
        }
    }

    #[test]
    fn growth_preserves_contents() {
        let mut table: LineTable<u64> = LineTable::with_capacity(8, 0);
        for i in 0..10_000u64 {
            table.insert(i, i * 2);
        }
        assert_eq!(table.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(table.get_mut(i).copied(), Some(i * 2));
        }
        table.reset();
        assert!(table.is_empty());
        assert_eq!(table.slots(), LineTable::with_capacity(8, 0u64).slots());
        assert_eq!(table.get_mut(7), None);
    }
}

/// A calendar queue for (ready-cycle, line) fill events, replacing a single
/// `BinaryHeap` whose size — and therefore per-operation cost — tracked the
/// whole DRAM backlog (tens of thousands of entries when prefetches queue
/// behind a saturated bus).
///
/// Events are binned into fixed-width cycle windows held as unsorted ring
/// buckets; only the current window lives in a real heap, so push is O(1)
/// for future windows and pop pays `log` of the few events due *now*
/// instead of `log` of everything in flight. Events beyond the ring horizon
/// overflow into a spill heap that is migrated window by window.
///
/// Pop order is exactly the `BinaryHeap` order it replaces —
/// lexicographic `(ready, line)` — because windows are processed in
/// ascending order and each window's events pop through the near heap.
#[derive(Debug)]
pub struct ReadyQueue {
    /// Events in windows `<= window`: the only heap-ordered portion.
    near: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    /// Ring of future windows: `buckets[w & (buckets.len() - 1)]` holds
    /// events whose window is `w`, for `window < w < window + buckets.len()`.
    buckets: Vec<Vec<(u64, u64)>>,
    /// Events at or beyond the ring horizon.
    overflow: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    /// The window index `near` currently covers.
    window: u64,
    len: usize,
}

/// Cycles per calendar window. Wide enough that window turnover is rare,
/// narrow enough that the near heap stays tiny.
const WINDOW_CYCLES: u64 = 256;
/// Ring length (windows); must be a power of two.
const RING_WINDOWS: usize = 1024;

impl ReadyQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            near: std::collections::BinaryHeap::with_capacity(256),
            buckets: vec![Vec::new(); RING_WINDOWS],
            overflow: std::collections::BinaryHeap::new(),
            window: 0,
            len: 0,
        }
    }

    /// Total queued events (including stale duplicates, exactly like the
    /// heap it replaces).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues a fill event.
    #[inline]
    pub fn push(&mut self, ready: u64, line: u64) {
        self.len += 1;
        let w = ready / WINDOW_CYCLES;
        if w <= self.window {
            self.near.push(std::cmp::Reverse((ready, line)));
        } else if w < self.window + RING_WINDOWS as u64 {
            self.buckets[(w as usize) & (RING_WINDOWS - 1)].push((ready, line));
        } else {
            self.overflow.push(std::cmp::Reverse((ready, line)));
        }
    }

    /// Moves every window up to `cycle`'s into the near heap.
    #[inline]
    fn advance(&mut self, cycle: u64) {
        let target = cycle / WINDOW_CYCLES;
        while self.window < target {
            self.window += 1;
            let bucket = (self.window as usize) & (RING_WINDOWS - 1);
            for (ready, line) in self.buckets[bucket].drain(..) {
                self.near.push(std::cmp::Reverse((ready, line)));
            }
            // Spill entries that have come inside the horizon move into
            // their ring bucket (or the near heap once their window is
            // reached); migrating lazily per window keeps this O(1)-ish.
            while let Some(&std::cmp::Reverse((ready, line))) = self.overflow.peek() {
                if ready / WINDOW_CYCLES >= self.window + RING_WINDOWS as u64 {
                    break;
                }
                self.overflow.pop();
                let w = ready / WINDOW_CYCLES;
                if w <= self.window {
                    self.near.push(std::cmp::Reverse((ready, line)));
                } else {
                    self.buckets[(w as usize) & (RING_WINDOWS - 1)].push((ready, line));
                }
            }
        }
    }

    /// Removes and returns the earliest event whose ready cycle is at or
    /// before `cycle`, in ascending `(ready, line)` order.
    #[inline]
    pub fn pop_ready(&mut self, cycle: u64) -> Option<(u64, u64)> {
        self.advance(cycle);
        match self.near.peek() {
            Some(&std::cmp::Reverse((ready, line))) if ready <= cycle => {
                self.near.pop();
                self.len -= 1;
                Some((ready, line))
            }
            _ => None,
        }
    }
}

impl Default for ReadyQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod ready_queue_tests {
    use super::*;

    /// The calendar queue must pop in exactly the order of the binary heap
    /// it replaced: ascending (ready, line), gated by the probe cycle.
    #[test]
    fn matches_binary_heap_order_under_random_traffic() {
        let mut queue = ReadyQueue::new();
        let mut reference = std::collections::BinaryHeap::new();
        let mut state = 0xDEAD_BEEF_u64;
        let mut cycle = 0u64;
        for _ in 0..100_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match state % 3 {
                0 | 1 => {
                    // Mix of near-future, far-future and past-horizon events.
                    let delta = match (state >> 8) % 4 {
                        0 => (state >> 32) % 8,
                        1 => (state >> 32) % 500,
                        2 => (state >> 32) % 50_000,
                        _ => (state >> 32) % 1_000_000,
                    };
                    let line = (state >> 16) % 1000;
                    queue.push(cycle + delta, line);
                    reference.push(std::cmp::Reverse((cycle + delta, line)));
                }
                _ => {
                    cycle += (state >> 32) % 600;
                    loop {
                        let got = queue.pop_ready(cycle);
                        let want = match reference.peek() {
                            Some(&std::cmp::Reverse((r, l))) if r <= cycle => {
                                reference.pop();
                                Some((r, l))
                            }
                            _ => None,
                        };
                        assert_eq!(got, want, "divergence at cycle {cycle}");
                        if got.is_none() {
                            break;
                        }
                    }
                    assert_eq!(queue.len(), reference.len());
                }
            }
        }
    }

    #[test]
    fn empty_queue_pops_nothing() {
        let mut queue = ReadyQueue::new();
        assert!(queue.is_empty());
        assert_eq!(queue.pop_ready(1_000_000), None);
    }
}
