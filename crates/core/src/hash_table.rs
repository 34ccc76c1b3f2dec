//! The shared, non-partitioned join hash table.
//!
//! Quickstep uses non-partitioned hash joins (the paper cites Blanas et al.):
//! every build work order inserts into one shared table, every probe work
//! order reads it. We shard the table into `2^k` independently locked
//! segments so concurrent build work orders scale, and use read locks during
//! the probe phase (the scheduler guarantees probes start only after the
//! build completes).
//!
//! Each shard is an open-addressing table we own outright — `slots` is a
//! linear-probed array of `(hash, key, chain head)` triples and duplicates
//! hang off a per-shard `links` side array — rather than a `std::HashMap`.
//! Owning the layout is what makes the batched probe possible: a
//! [`ProbeSession`] takes every shard read lock once per work order, and
//! [`ProbeSession::probe_batch`] runs the two-pass scheme from the vectorized
//! join literature (pass 1 hashes the whole block and software-prefetches the
//! home slot of a row a fixed distance ahead; pass 2 resolves matches into a
//! flat [`ProbeMatch`] vector for gather-based output assembly).
//!
//! Shard selection uses the *top* hash bits and slot placement the *bottom*
//! bits, so the two indices stay independent. All placement derives from
//! [`uot_storage::hash_of`], which the batched key pipeline
//! ([`uot_storage::KeyBatch`]) computes identically.
//!
//! Payload rows are stored as fixed-width encoded bytes in per-shard arenas —
//! the same encoding as a row-store tuple — so a hash table's memory
//! footprint is directly measurable, which the memory experiments
//! (Section VI of the paper, `|H_i|`) rely on.

use crate::Result;
use parking_lot::{RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use uot_storage::{
    hash_of, DataType, HashKey, KeyBatch, KeyExtractor, MemoryTracker, Schema, StorageBlock,
};

/// Sentinel for "no slot / end of chain".
pub(crate) const NIL: u32 = u32::MAX;

/// How many rows ahead of the resolve cursor pass 1 prefetches. Far enough to
/// cover DRAM latency at ~1 ns/row of resolve work, near enough to stay in L1.
pub(crate) const PREFETCH_DIST: usize = 16;

/// Prefetch the cache line holding `*p` into L1 (read intent). No-op on
/// architectures without an explicit prefetch hint.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(p as *const i8, _MM_HINT_T0);
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, readonly));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = p;
    }
}

/// A read-only view of one payload row stored in the table.
#[derive(Clone, Copy)]
pub struct PayloadRef<'a> {
    schema: &'a Schema,
    bytes: &'a [u8],
}

impl<'a> PayloadRef<'a> {
    /// Read an `Int32` payload column.
    #[inline]
    pub fn i32_at(&self, col: usize) -> i32 {
        let off = self.schema.offset(col);
        i32::from_le_bytes(self.bytes[off..off + 4].try_into().unwrap())
    }

    /// Read an `Int64` payload column.
    #[inline]
    pub fn i64_at(&self, col: usize) -> i64 {
        let off = self.schema.offset(col);
        i64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Read a `Float64` payload column.
    #[inline]
    pub fn f64_at(&self, col: usize) -> f64 {
        let off = self.schema.offset(col);
        f64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Read a `Date` payload column.
    #[inline]
    pub fn date_at(&self, col: usize) -> i32 {
        self.i32_at(col)
    }

    /// Read a `Char(n)` payload column (padded bytes).
    #[inline]
    pub fn char_at(&self, col: usize) -> &'a [u8] {
        let off = self.schema.offset(col);
        let w = self.schema.dtype(col).width();
        &self.bytes[off..off + w]
    }

    /// The payload schema.
    #[inline]
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }
}

/// A slot of a linear-probed, power-of-two open-addressing array. The join
/// table's shards and the aggregation group table
/// ([`crate::ops::aggregate::GroupTable`]) share the probing, growth and
/// load-factor rules below through this trait.
pub(crate) trait OpenSlot: Clone {
    /// An unoccupied slot.
    fn vacant() -> Self;
    /// True for an unoccupied slot.
    fn is_vacant(&self) -> bool;
}

/// True when inserting one more key would pass the 7/8 load factor (or the
/// array is still unallocated), so linear probes stay short.
#[inline(always)]
pub(crate) fn needs_grow(occupied: usize, capacity: usize) -> bool {
    (occupied + 1) * 8 > capacity * 7
}

/// Double (or initialize to 8) a slot array and re-place every occupied slot
/// by its key's full hash (placement uses the bottom bits).
pub(crate) fn grow_slots<S: OpenSlot>(slots: &mut Vec<S>, hash: impl Fn(&S) -> u64) {
    let new_cap = (slots.len() * 2).max(8);
    let old = std::mem::replace(slots, vec![S::vacant(); new_cap]);
    let mask = new_cap - 1;
    for s in old {
        if s.is_vacant() {
            continue;
        }
        let mut idx = (hash(&s) as usize) & mask;
        while !slots[idx].is_vacant() {
            idx = (idx + 1) & mask;
        }
        slots[idx] = s;
    }
}

/// Linear probe from the home slot of `hash` to the first slot that is
/// vacant or holds the key (`hit`). `slots` must be non-empty.
#[inline(always)]
pub(crate) fn probe_slot<S: OpenSlot>(slots: &[S], hash: u64, hit: impl Fn(&S) -> bool) -> usize {
    let mask = slots.len() - 1;
    let mut idx = (hash as usize) & mask;
    loop {
        let s = &slots[idx];
        if s.is_vacant() || hit(s) {
            return idx;
        }
        idx = (idx + 1) & mask;
    }
}

/// One open-addressing slot: a distinct key plus the head of its duplicate
/// chain in the shard's `links` array. `head == NIL` marks a vacant slot.
#[derive(Debug, Clone)]
struct Slot {
    hash: u64,
    head: u32,
    key: HashKey,
}

impl OpenSlot for Slot {
    fn vacant() -> Slot {
        Slot {
            hash: 0,
            head: NIL,
            key: HashKey::Fixed(0, 0),
        }
    }

    #[inline]
    fn is_vacant(&self) -> bool {
        self.head == NIL
    }
}

/// One node of a duplicate chain: a payload row index and the next node.
#[derive(Debug, Clone, Copy)]
struct Link {
    payload: u32,
    next: u32,
}

/// One lock-protected segment of the table.
#[derive(Debug, Default)]
struct Shard {
    /// Linear-probed slot array; length is always a power of two (or zero
    /// before the first insert).
    slots: Vec<Slot>,
    /// Duplicate chains, newest first.
    links: Vec<Link>,
    /// Occupied slots (distinct keys), for the grow threshold.
    occupied: usize,
    /// Payload rows, encoded fixed-width back to back (row `i` occupies
    /// `[i*w, (i+1)*w)` where `w` is the payload tuple width).
    arena: Vec<u8>,
    /// Payload rows inserted (tracked separately from the arena length so
    /// zero-width payload schemas still index correctly).
    rows: u32,
}

impl Shard {
    /// Insert one payload row under a key described by (`hash`, `eq`,
    /// `make`): `eq` tests a stored key for equality, `make` materializes the
    /// key only when a new slot is claimed.
    fn insert_row(
        &mut self,
        hash: u64,
        eq: impl Fn(&HashKey) -> bool,
        make: impl FnOnce() -> HashKey,
        payload: u32,
    ) {
        if needs_grow(self.occupied, self.slots.len()) {
            grow_slots(&mut self.slots, |s| s.hash);
        }
        let idx = probe_slot(&self.slots, hash, |s| s.hash == hash && eq(&s.key));
        let link = self.links.len() as u32;
        let s = &mut self.slots[idx];
        if s.is_vacant() {
            self.links.push(Link { payload, next: NIL });
            *s = Slot {
                hash,
                head: link,
                key: make(),
            };
            self.occupied += 1;
        } else {
            self.links.push(Link {
                payload,
                next: s.head,
            });
            s.head = link;
        }
    }

    /// Find the chain head for (`hash`, `eq`), or `NIL`.
    #[inline]
    fn find(&self, hash: u64, eq: impl Fn(&HashKey) -> bool) -> u32 {
        if self.slots.is_empty() {
            return NIL;
        }
        self.slots[probe_slot(&self.slots, hash, |s| s.hash == hash && eq(&s.key))].head
    }
}

/// One resolved probe match: input row `probe_row` of the probed block joins
/// the build-side payload row `payload` of shard `shard`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeMatch {
    /// Row index within the probed block (or selection vector).
    pub probe_row: u32,
    /// Which shard holds the payload.
    pub shard: u32,
    /// Payload row index within that shard's arena.
    pub payload: u32,
}

/// A sharded, concurrently-buildable join hash table.
#[derive(Debug)]
pub struct JoinHashTable {
    payload_schema: Arc<Schema>,
    shards: Vec<RwLock<Shard>>,
    entries: AtomicUsize,
    /// Bytes already reported to the memory tracker (see `sync_tracker`).
    tracked: AtomicUsize,
}

impl JoinHashTable {
    /// Create a table with `shards` segments (rounded up to a power of two).
    pub fn new(payload_schema: Arc<Schema>, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        JoinHashTable {
            payload_schema,
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            entries: AtomicUsize::new(0),
            tracked: AtomicUsize::new(0),
        }
    }

    /// Schema of the stored payload rows.
    pub fn payload_schema(&self) -> &Arc<Schema> {
        &self.payload_schema
    }

    /// Number of payload rows inserted.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shard index from the *top* hash bits — slot placement uses the bottom
    /// bits, so the two stay independent.
    #[inline]
    fn shard_of(&self, hash: u64) -> usize {
        ((hash >> 48) as usize) & (self.shards.len() - 1)
    }

    /// Insert every key of `batch` (extracted from `block`), storing
    /// `payload_cols` as the payload. Groups rows by shard so each shard's
    /// write lock is taken at most once per call, instead of once per row.
    pub fn insert_batch(&self, block: &StorageBlock, batch: &KeyBatch, payload_cols: &[usize]) {
        let n = batch.len();
        debug_assert_eq!(n, block.num_rows());
        if n == 0 {
            return;
        }
        let hashes = batch.hashes();
        if self.shards.len() == 1 {
            let mut guard = self.shards[0].write();
            for (i, &h) in hashes.iter().enumerate() {
                self.insert_one(&mut guard, block, batch, i, h, payload_cols);
            }
        } else {
            let mut by_shard: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
            for (i, &h) in hashes.iter().enumerate() {
                by_shard[self.shard_of(h)].push(i as u32);
            }
            for (s, rows) in by_shard.iter().enumerate() {
                if rows.is_empty() {
                    continue;
                }
                let mut guard = self.shards[s].write();
                for &i in rows {
                    let i = i as usize;
                    self.insert_one(&mut guard, block, batch, i, hashes[i], payload_cols);
                }
            }
        }
        self.entries.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn insert_one(
        &self,
        shard: &mut Shard,
        block: &StorageBlock,
        batch: &KeyBatch,
        row: usize,
        hash: u64,
        payload_cols: &[usize],
    ) {
        let payload = shard.rows;
        shard.rows += 1;
        encode_row(
            &mut shard.arena,
            block,
            row,
            payload_cols,
            &self.payload_schema,
        );
        shard.insert_row(
            hash,
            |k| batch.key_eq(row, k),
            || batch.key_at(row),
            payload,
        );
    }

    /// Insert every row of `block`, keyed by `key_cols`, storing
    /// `payload_cols` as the payload. Called concurrently by build work
    /// orders. (Scalar-API entry point: compiles a throwaway extractor; the
    /// engine's build operator uses a precompiled one with `insert_batch`.)
    pub fn insert_block(
        &self,
        block: &StorageBlock,
        key_cols: &[usize],
        payload_cols: &[usize],
    ) -> Result<()> {
        let extractor = KeyExtractor::compile(block.schema(), key_cols)?;
        let mut batch = KeyBatch::new();
        extractor.extract_block(block, &mut batch);
        self.insert_batch(block, &batch, payload_cols);
        Ok(())
    }

    /// Visit every payload row matching `key`. Returns the number of matches.
    ///
    /// Matches within a key are visited newest-insertion-first (the duplicate
    /// chain is prepend-ordered); callers that care about order sort.
    pub fn probe_key(&self, key: &HashKey, mut f: impl FnMut(PayloadRef<'_>)) -> usize {
        let hash = hash_of(key);
        let shard = self.shards[self.shard_of(hash)].read();
        let w = self.payload_schema.tuple_width();
        let mut link = shard.find(hash, |k| k == key);
        let mut n = 0;
        while link != NIL {
            let l = shard.links[link as usize];
            let off = l.payload as usize * w;
            f(PayloadRef {
                schema: &self.payload_schema,
                bytes: &shard.arena[off..off + w],
            });
            n += 1;
            link = l.next;
        }
        n
    }

    /// True if any payload row matches `key` (semi/anti joins).
    pub fn contains_key(&self, key: &HashKey) -> bool {
        let hash = hash_of(key);
        self.shards[self.shard_of(hash)]
            .read()
            .find(hash, |k| k == key)
            != NIL
    }

    /// Open a batched probe session: acquires every shard's read lock once,
    /// so per-row probes inside the session touch no locks at all.
    pub fn probe_session(&self) -> ProbeSession<'_> {
        ProbeSession {
            table: self,
            guards: self.shards.iter().map(|s| s.read()).collect(),
        }
    }

    /// Approximate resident bytes: payload arenas, slot arrays, and duplicate
    /// chains. Mirrors the paper's `|H_i|` accounting.
    pub fn memory_bytes(&self) -> usize {
        let mut total = 0;
        for s in &self.shards {
            let s = s.read();
            total += s.arena.capacity();
            total += s.slots.capacity() * std::mem::size_of::<Slot>();
            total += s.links.capacity() * std::mem::size_of::<Link>();
        }
        total
    }

    /// Report memory growth since the last sync to `tracker` (called by the
    /// engine when a build operator finishes, and at query teardown with
    /// `release`).
    pub fn sync_tracker(&self, tracker: &MemoryTracker) {
        let now = self.memory_bytes();
        let prev = self.tracked.swap(now, Ordering::Relaxed);
        if now > prev {
            tracker.alloc(now - prev);
        } else {
            tracker.free(prev - now);
        }
    }

    /// Release all tracked bytes from `tracker` (query teardown).
    pub fn release_tracker(&self, tracker: &MemoryTracker) {
        let prev = self.tracked.swap(0, Ordering::Relaxed);
        tracker.free(prev);
    }
}

/// A per-work-order probe view holding every shard's read lock.
///
/// Probes run in two passes over a [`KeyBatch`]: the cursor at row `i`
/// resolves matches while the home slot for row `i + PREFETCH_DIST` is being
/// prefetched, hiding DRAM latency behind useful work.
pub struct ProbeSession<'a> {
    table: &'a JoinHashTable,
    guards: Vec<RwLockReadGuard<'a, Shard>>,
}

impl ProbeSession<'_> {
    /// Resolve every key of `batch` against the table, appending one
    /// [`ProbeMatch`] per (probe row, matching payload row) pair to `out`
    /// in probe-row order.
    pub fn probe_batch(&self, batch: &KeyBatch, out: &mut Vec<ProbeMatch>) {
        let hashes = batch.hashes();
        let n = hashes.len();
        for i in 0..n {
            if i + PREFETCH_DIST < n {
                self.prefetch_home(hashes[i + PREFETCH_DIST]);
            }
            let h = hashes[i];
            let sh = self.table.shard_of(h);
            let shard = &*self.guards[sh];
            let mut link = shard.find(h, |k| batch.key_eq(i, k));
            while link != NIL {
                let l = shard.links[link as usize];
                out.push(ProbeMatch {
                    probe_row: i as u32,
                    shard: sh as u32,
                    payload: l.payload,
                });
                link = l.next;
            }
        }
    }

    /// Existence-only variant for semi/anti joins: pushes one `bool` per key
    /// of `batch` onto `out`.
    pub fn contains_batch(&self, batch: &KeyBatch, out: &mut Vec<bool>) {
        let hashes = batch.hashes();
        let n = hashes.len();
        out.reserve(n);
        for i in 0..n {
            if i + PREFETCH_DIST < n {
                self.prefetch_home(hashes[i + PREFETCH_DIST]);
            }
            let h = hashes[i];
            let shard = &*self.guards[self.table.shard_of(h)];
            out.push(shard.find(h, |k| batch.key_eq(i, k)) != NIL);
        }
    }

    /// The payload row a [`ProbeMatch`] refers to.
    #[inline]
    pub fn payload(&self, m: ProbeMatch) -> PayloadRef<'_> {
        let shard = &*self.guards[m.shard as usize];
        let w = self.table.payload_schema.tuple_width();
        let off = m.payload as usize * w;
        PayloadRef {
            schema: &self.table.payload_schema,
            bytes: &shard.arena[off..off + w],
        }
    }

    /// The payload schema (same as the owning table's).
    #[inline]
    pub fn payload_schema(&self) -> &Arc<Schema> {
        &self.table.payload_schema
    }

    #[inline(always)]
    fn prefetch_home(&self, hash: u64) {
        let shard = &*self.guards[self.table.shard_of(hash)];
        if !shard.slots.is_empty() {
            let idx = (hash as usize) & (shard.slots.len() - 1);
            prefetch_read(&shard.slots[idx]);
        }
    }
}

/// Append the projected columns of `block[row]` to `arena` using the
/// row-store fixed-width encoding of `payload_schema`.
fn encode_row(
    arena: &mut Vec<u8>,
    block: &StorageBlock,
    row: usize,
    payload_cols: &[usize],
    payload_schema: &Schema,
) {
    debug_assert_eq!(payload_cols.len(), payload_schema.len());
    for (j, &c) in payload_cols.iter().enumerate() {
        match payload_schema.dtype(j) {
            DataType::Int32 => arena.extend_from_slice(&block.i32_at(row, c).to_le_bytes()),
            DataType::Date => arena.extend_from_slice(&block.date_at(row, c).to_le_bytes()),
            DataType::Int64 => arena.extend_from_slice(&block.i64_at(row, c).to_le_bytes()),
            DataType::Float64 => arena.extend_from_slice(&block.f64_at(row, c).to_le_bytes()),
            DataType::Char(_) => arena.extend_from_slice(block.char_at(row, c)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uot_storage::{BlockFormat, Value};

    fn build_block(n: i32) -> StorageBlock {
        let s = Schema::from_pairs(&[
            ("k", DataType::Int32),
            ("name", DataType::Char(4)),
            ("w", DataType::Float64),
        ]);
        let mut b = StorageBlock::new(s, BlockFormat::Column, 1 << 16).unwrap();
        for i in 0..n {
            b.append_row(&[
                Value::I32(i % 4), // duplicate keys
                Value::Str(format!("n{i}")),
                Value::F64(i as f64),
            ])
            .unwrap();
        }
        b
    }

    fn table_for(block: &StorageBlock) -> JoinHashTable {
        let payload = block.schema().project(&[1, 2]);
        JoinHashTable::new(payload, 8)
    }

    #[test]
    fn insert_and_probe() {
        let b = build_block(8);
        let ht = table_for(&b);
        ht.insert_block(&b, &[0], &[1, 2]).unwrap();
        assert_eq!(ht.len(), 8);

        // key 1 matches rows 1 and 5
        let mut got = vec![];
        let n = ht.probe_key(&HashKey::from_i32(1), |p| {
            got.push((
                String::from_utf8_lossy(p.char_at(0)).trim_end().to_string(),
                p.f64_at(1),
            ));
        });
        assert_eq!(n, 2);
        got.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        assert_eq!(got, vec![("n1".to_string(), 1.0), ("n5".to_string(), 5.0)]);
    }

    #[test]
    fn missing_key_yields_nothing() {
        let b = build_block(4);
        let ht = table_for(&b);
        ht.insert_block(&b, &[0], &[1, 2]).unwrap();
        let mut called = false;
        assert_eq!(ht.probe_key(&HashKey::from_i32(99), |_| called = true), 0);
        assert!(!called);
        assert!(!ht.contains_key(&HashKey::from_i32(99)));
        assert!(ht.contains_key(&HashKey::from_i32(0)));
    }

    #[test]
    fn empty_table() {
        let b = build_block(0);
        let ht = table_for(&b);
        ht.insert_block(&b, &[0], &[1, 2]).unwrap();
        assert!(ht.is_empty());
        assert_eq!(ht.probe_key(&HashKey::from_i32(0), |_| {}), 0);
    }

    #[test]
    fn concurrent_build_is_complete() {
        let blocks: Vec<StorageBlock> = (0..8).map(|_| build_block(100)).collect();
        let payload = blocks[0].schema().project(&[1, 2]);
        let ht = Arc::new(JoinHashTable::new(payload, 16));
        std::thread::scope(|s| {
            for b in &blocks {
                let ht = ht.clone();
                s.spawn(move || ht.insert_block(b, &[0], &[1, 2]).unwrap());
            }
        });
        assert_eq!(ht.len(), 800);
        // each key 0..3 appears 25 times per block * 8 blocks
        for k in 0..4 {
            assert_eq!(ht.probe_key(&HashKey::from_i32(k), |_| {}), 200);
        }
    }

    #[test]
    fn memory_accounting() {
        let b = build_block(64);
        let ht = table_for(&b);
        let t = MemoryTracker::new();
        ht.sync_tracker(&t);
        let before = t.current_bytes();
        ht.insert_block(&b, &[0], &[1, 2]).unwrap();
        ht.sync_tracker(&t);
        assert!(t.current_bytes() > before);
        assert!(ht.memory_bytes() >= 64 * (4 + 8)); // at least the payload arena
        ht.release_tracker(&t);
        assert_eq!(t.current_bytes(), 0);
    }

    #[test]
    fn composite_keys() {
        let b = build_block(8);
        let ht = JoinHashTable::new(b.schema().project(&[2]), 4);
        // key on (k, name) — all distinct because name differs
        ht.insert_block(&b, &[0, 1], &[2]).unwrap();
        let key = HashKey::from_row(&b, 3, &[0, 1]);
        let mut vals = vec![];
        ht.probe_key(&key, |p| vals.push(p.f64_at(0)));
        assert_eq!(vals, vec![3.0]);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let b = build_block(1);
        let ht = JoinHashTable::new(b.schema().project(&[0]), 5);
        assert_eq!(ht.shards.len(), 8);
        let ht = JoinHashTable::new(b.schema().project(&[0]), 0);
        assert_eq!(ht.shards.len(), 1);
    }

    #[test]
    fn batched_probe_matches_scalar() {
        let build = build_block(200);
        let ht = table_for(&build);
        ht.insert_block(&build, &[0], &[1, 2]).unwrap();

        // Probe block with hit, duplicate-hit, and miss keys.
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut probe = StorageBlock::new(s, BlockFormat::Column, 1 << 12).unwrap();
        for i in 0..64 {
            probe.append_row(&[Value::I32(i % 7)]).unwrap(); // 4..6 miss
        }
        let ex = KeyExtractor::compile(probe.schema(), &[0]).unwrap();
        let mut batch = KeyBatch::new();
        ex.extract_block(&probe, &mut batch);

        let session = ht.probe_session();
        let mut matches = Vec::new();
        session.probe_batch(&batch, &mut matches);
        let mut exists = Vec::new();
        session.contains_batch(&batch, &mut exists);

        for (r, &seen) in exists.iter().enumerate() {
            let key = HashKey::from_row(&probe, r, &[0]);
            let mut scalar: Vec<f64> = Vec::new();
            ht.probe_key(&key, |p| scalar.push(p.f64_at(1)));
            let mut batched: Vec<f64> = matches
                .iter()
                .filter(|m| m.probe_row == r as u32)
                .map(|&m| session.payload(m).f64_at(1))
                .collect();
            scalar.sort_by(|a, b| a.partial_cmp(b).unwrap());
            batched.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(batched, scalar, "row {r}");
            assert_eq!(seen, !scalar.is_empty());
        }
        // Matches come out in probe-row order (gather relies on it).
        assert!(matches.windows(2).all(|w| w[0].probe_row <= w[1].probe_row));
    }

    #[test]
    fn zero_width_payload() {
        let b = build_block(30);
        let ht = JoinHashTable::new(b.schema().project(&[]), 4);
        ht.insert_block(&b, &[0], &[]).unwrap();
        assert_eq!(ht.len(), 30);
        // 30 rows over keys 0..4: keys 0,1 appear 8 times, 2,3 appear 7.
        assert_eq!(ht.probe_key(&HashKey::from_i32(0), |_| {}), 8);
        assert_eq!(ht.probe_key(&HashKey::from_i32(3), |_| {}), 7);
        assert!(ht.contains_key(&HashKey::from_i32(2)));
    }
}
