//! Deduplication substrate for the explorer.
//!
//! Three cooperating pieces:
//!
//! * [`FpTable`] — a growable open-addressing fingerprint table. Each
//!   16-byte slot is a pair of atomics: `fp` holds the low half of the
//!   state's 128-bit `fp128` fingerprint (the probe key) and `meta` packs
//!   `(id + 1) << 32 | hi32` once the entry is published. Insertion
//!   claims a slot with a single compare-and-swap and publishes the id
//!   with a release store, exactly the Arc-style publication idiom: the
//!   writer releases after the payload (canonical code, spill location,
//!   LRU entry) is in place, and readers acquire through `meta` before
//!   touching any of it. The table starts at [`MIN_SLOTS`] and doubles
//!   by migration whenever it is half full (see [`FpTable`]), so its
//!   memory follows the number of states actually interned, not the
//!   `max_states` budget.
//! * [`Segments`] — id-indexed arrays (the canonical-code arena, the
//!   spill locations, the graph-mode node store) made of doubling
//!   segments, each allocated on first use.
//! * [`SpillStore`] — an append-only on-disk code store behind a sharded
//!   LRU in-memory tier, so canonical codes no longer pin the run's state
//!   count to RAM. Codes append to per-worker unlinked temp files (the
//!   kernel reclaims them when the run drops the handles); a flushed
//!   watermark per file tells readers which byte ranges `read_at` may
//!   touch. A candidate whose code is neither cached nor yet flushed is
//!   matched on its 128-bit fingerprint alone and counted as
//!   `dedup_unverified` (collision probability < 2⁻⁷⁰ at 10⁸ states).
//!
//! # Memory-ordering certificates
//!
//! Every non-SeqCst ordering below cites a note from
//! `anonreg_sanitizer::explorer_site_notes()`:
//!
//! * `ORD-DEDUP-CLAIM-001` — the claim CAS on `fp` is Relaxed/Relaxed:
//!   the claim transfers no payload, only slot ownership, which CAS
//!   atomicity alone guarantees; all payload synchronises through `meta`.
//! * `ORD-DEDUP-META-002` — `meta` is stored Release after the code is
//!   published and loaded Acquire before the code is read: the one true
//!   synchronisation edge of the table (Arc-Impl idiom).
//! * `ORD-DEDUP-SPIN-003` — a reader that observes a claimed slot with
//!   `meta == 0` spins with periodic abort checks; claimants always
//!   publish (the limit path publishes a sentinel), so the spin is
//!   bounded by the claim-to-publish window unless the run is tearing
//!   down.
//! * `ORD-DEDUP-FLUSH-006` — the spill watermark is stored Release after
//!   `write_all_at` returns and loaded Acquire before `read_at`, so a
//!   covered range is durably readable.
//! * `ORD-DEDUP-GROW-008` — the growth trigger is a Relaxed load of the
//!   id counter before a claim; the migration itself runs under the
//!   table's write guard, whose release/acquire pairing with every
//!   reader's shared guard hands the published slots to the new table.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fs::File;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, RwLock, RwLockReadGuard};

use anonreg_model::fingerprint::Fp128;

/// Substitute probe key for the (vanishingly rare) fingerprint whose low
/// half is zero — zero marks an empty slot.
const ZERO_KEY_SUBSTITUTE: u64 = 0x9e37_79b9_7f4a_7c15;

/// `meta` sentinel published by a claimant that hit the state limit, so
/// concurrent probers of the same slot stop spinning and abort too.
const LIMIT_META: u64 = u64::MAX;

/// Hard ceiling on table slots (2²⁸ × 16 B = 4 GiB). `max_states` beyond
/// half this many slots is capped by the table, keeping probe chains
/// short at ≤ 50% load.
const MAX_SLOTS: usize = 1 << 28;
/// Slots a fresh table starts with (16 KiB).
const MIN_SLOTS: usize = 1 << 10;

struct Slot {
    /// Low fingerprint half; 0 = empty. Written once by the claim CAS.
    fp: AtomicU64,
    /// `(id + 1) << 32 | hi32` once published; 0 = claimed-unpublished;
    /// [`LIMIT_META`] if the claimant hit the state limit.
    meta: AtomicU64,
}

/// Outcome of a [`Reader::intern`] probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The code was new; this thread claimed the returned id.
    Fresh(u32),
    /// The code was already interned under the returned id.
    Known(u32),
    /// The state limit was reached (by this thread or a concurrent one).
    Limit,
    /// The abort callback fired while waiting on a concurrent publisher.
    Aborted,
}

/// One generation of the table: a power-of-two slot array.
struct Slots {
    slots: Box<[Slot]>,
    mask: usize,
    /// Claims stop and ask for a migration once this many ids are
    /// allocated (half the slots); `usize::MAX` at the final size.
    grow_at: usize,
}

impl Slots {
    fn new(len: usize, max_len: usize) -> Self {
        let slots = (0..len)
            .map(|_| Slot {
                fp: AtomicU64::new(0),
                meta: AtomicU64::new(0),
            })
            .collect();
        Slots {
            slots,
            mask: len - 1,
            grow_at: if len >= max_len { usize::MAX } else { len / 2 },
        }
    }

    /// A table twice this size holding every claimed slot. Runs under
    /// the write guard, so plain (non-atomic) access suffices: no intern
    /// is in flight, and every claimant published before releasing its
    /// shared guard.
    fn doubled(&mut self, max_len: usize) -> Slots {
        let mut next = Slots::new(self.slots.len() * 2, max_len);
        for slot in self.slots.iter_mut() {
            let key = *slot.fp.get_mut();
            if key == 0 {
                continue;
            }
            let mut idx = (key as usize) & next.mask;
            while *next.slots[idx].fp.get_mut() != 0 {
                idx = (idx + 1) & next.mask;
            }
            *next.slots[idx].fp.get_mut() = key;
            *next.slots[idx].meta.get_mut() = *slot.meta.get_mut();
        }
        next
    }

    /// One probe of this generation; `None` asks for a migration.
    fn intern(
        &self,
        table: &FpTable,
        fp: Fp128,
        is_same: &mut impl FnMut(u32) -> bool,
        publish: &mut impl FnMut(u32),
        should_abort: &impl Fn() -> bool,
    ) -> Option<Probe> {
        let key = if fp.lo == 0 {
            ZERO_KEY_SUBSTITUTE
        } else {
            fp.lo
        };
        let hi32 = fp.hi as u32;
        let mut idx = (key as usize) & self.mask;
        loop {
            let slot = &self.slots[idx];
            let cur = slot.fp.load(Ordering::Relaxed);
            if cur == key {
                // Candidate: spin out the claim-to-publish window, then
                // verify the high fingerprint half and (via `is_same`)
                // the code itself. ORD-DEDUP-SPIN-003 / ORD-DEDUP-META-002.
                let mut spins = 0u32;
                let meta = loop {
                    let meta = slot.meta.load(Ordering::Acquire);
                    if meta != 0 {
                        break meta;
                    }
                    spins = spins.wrapping_add(1);
                    if spins & 1023 == 0 && should_abort() {
                        return Some(Probe::Aborted);
                    }
                    std::hint::spin_loop();
                };
                if meta == LIMIT_META {
                    return Some(Probe::Limit);
                }
                if meta as u32 == hi32 {
                    let id = (meta >> 32) as u32 - 1;
                    if is_same(id) {
                        return Some(Probe::Known(id));
                    }
                }
                // Different state sharing 64 (or even 96) fingerprint
                // bits: keep probing — it lives (or will live) in a
                // later slot of the same chain.
                idx = (idx + 1) & self.mask;
            } else if cur == 0 {
                // ORD-DEDUP-GROW-008: a stale count only lets this claim
                // overshoot the threshold by one.
                if table.next_id.load(Ordering::Relaxed) >= self.grow_at {
                    return None;
                }
                // ORD-DEDUP-CLAIM-001: Relaxed claim; payload publication
                // is meta's job. On failure re-examine the same slot,
                // which is now permanently nonzero.
                if slot
                    .fp
                    .compare_exchange(0, key, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    let id = table.next_id.fetch_add(1, Ordering::Relaxed);
                    if id >= table.limit {
                        // Claimants always publish, even on the limit
                        // path, so concurrent spinners can't hang.
                        slot.meta.store(LIMIT_META, Ordering::Release);
                        return Some(Probe::Limit);
                    }
                    let id = id as u32;
                    publish(id);
                    let meta = (u64::from(id) + 1) << 32 | u64::from(hi32);
                    // ORD-DEDUP-META-002: Release-publish after payload.
                    slot.meta.store(meta, Ordering::Release);
                    return Some(Probe::Fresh(id));
                }
            } else {
                idx = (idx + 1) & self.mask;
            }
        }
    }
}

/// Growable lock-free open-addressing fingerprint table.
///
/// The slot array starts at [`MIN_SLOTS`] (or a little more, so every
/// worker can overshoot the growth threshold by one claim) and doubles
/// whenever half its slots are taken, up to twice the state budget
/// rounded to a power of two — so load never exceeds 50% and linear probe
/// chains stay short. Within one generation slots are never unclaimed:
/// `fp` and a published `meta` are immutable once written, which is what
/// makes the wait-free read path sound.
///
/// Interns run under a shared [`Reader`] guard. The claimant that finds
/// the table half full releases its guard and migrates: under the write
/// guard it re-inserts every published `(fp, meta)` pair into a table
/// twice the size. Ids live in `meta`, so they survive the move, and no
/// canonical code is re-read.
pub(crate) struct FpTable {
    slots: RwLock<Slots>,
    next_id: AtomicUsize,
    /// Effective state budget: `min(max_states, max_slots / 2)`.
    limit: usize,
    /// The size the table stops doubling at.
    max_slots: usize,
}

impl FpTable {
    /// A table for up to `max_states` states, probed by up to `workers`
    /// threads at once. Only [`MIN_SLOTS`] slots are allocated up front.
    pub(crate) fn new(max_states: usize, workers: usize) -> Self {
        let slots_for = |n: usize| {
            n.saturating_mul(2)
                .max(1)
                .checked_next_power_of_two()
                .unwrap_or(MAX_SLOTS)
                .clamp(MIN_SLOTS, MAX_SLOTS)
        };
        // Claims racing past the growth check overshoot it by at most
        // one per worker, which the free half of the table absorbs.
        let max_slots = slots_for(max_states.max(workers));
        let first = slots_for(workers).min(max_slots);
        FpTable {
            slots: RwLock::new(Slots::new(first, max_slots)),
            next_id: AtomicUsize::new(0),
            limit: max_states.min(max_slots / 2),
            max_slots,
        }
    }

    /// States interned so far (clamped to the budget).
    pub(crate) fn len(&self) -> usize {
        self.next_id.load(Ordering::Relaxed).min(self.limit)
    }

    /// Bytes of slot array currently allocated.
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.read_slots().slots.len() * std::mem::size_of::<Slot>()
    }

    /// Shared access for a run of [`Reader::intern`] calls. Hold it for
    /// one work item, not across idle waits: a migration waits for every
    /// reader to let go.
    pub(crate) fn reader(&self) -> Reader<'_> {
        Reader {
            table: self,
            slots: Some(self.read_slots()),
        }
    }

    fn read_slots(&self) -> RwLockReadGuard<'_, Slots> {
        self.slots.read().expect("dedup table lock")
    }

    /// Doubles the table unless a sibling already grew it past `seen`
    /// slots.
    fn grow(&self, seen: usize) {
        let mut slots = self.slots.write().expect("dedup table lock");
        if slots.slots.len() == seen {
            *slots = slots.doubled(self.max_slots);
        }
    }
}

/// A shared guard on an [`FpTable`], through which interns run.
pub(crate) struct Reader<'a> {
    table: &'a FpTable,
    /// `None` only while this reader waits out a migration.
    slots: Option<RwLockReadGuard<'a, Slots>>,
}

impl Reader<'_> {
    /// Finds or inserts the state fingerprinted by `fp`.
    ///
    /// `is_same(id)` decides whether candidate `id` (same 96 fingerprint
    /// bits) really is this state — authoritative code comparison, or a
    /// fingerprint-trusting fallback in spill mode. `publish(id)` runs
    /// after id allocation and **before** the entry becomes visible; it
    /// must put the canonical code wherever `is_same` will look
    /// (ORD-DEDUP-META-002 makes that publication visible to readers).
    /// `should_abort()` bounds the publication-wait spin
    /// (ORD-DEDUP-SPIN-003). A probe that would claim a slot of a
    /// half-full table first migrates it to twice the size and retries.
    pub(crate) fn intern(
        &mut self,
        fp: Fp128,
        mut is_same: impl FnMut(u32) -> bool,
        mut publish: impl FnMut(u32),
        should_abort: impl Fn() -> bool,
    ) -> Probe {
        let table = self.table;
        loop {
            let slots = self.slots.as_ref().expect("reader holds its guard");
            if let Some(probe) = slots.intern(table, fp, &mut is_same, &mut publish, &should_abort)
            {
                return probe;
            }
            // Release the shared guard so the migration can take the
            // exclusive one, then retry against the grown table.
            let seen = slots.slots.len();
            self.slots = None;
            table.grow(seen);
            self.slots = Some(table.read_slots());
        }
    }
}

/// Ids held by the first segment of a [`Segments`] array; segment `k`
/// holds `FIRST_SEGMENT << k`.
const FIRST_SEGMENT: usize = 1 << 10;
/// Enough doubling segments to index every `u32` id.
const SEGMENT_COUNT: usize = 23;

/// An id-indexed array of `T::default()` cells that grows by doubling
/// segments, each allocated the first time an id inside it is touched.
/// Allocated memory is at most twice what the highest id needs, whatever
/// the id budget.
pub(crate) struct Segments<T> {
    segments: [OnceLock<Box<[T]>>; SEGMENT_COUNT],
}

/// The segment holding `id`, and its offset there.
fn locate(id: usize) -> (usize, usize) {
    let k = (id / FIRST_SEGMENT + 1).ilog2() as usize;
    (k, id - FIRST_SEGMENT * ((1 << k) - 1))
}

impl<T: Default> Segments<T> {
    pub(crate) fn new() -> Self {
        Segments {
            segments: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The cell for `id`, allocating its segment on first use.
    pub(crate) fn get(&self, id: usize) -> &T {
        let (k, offset) = locate(id);
        let segment = self.segments[k]
            .get_or_init(|| (0..FIRST_SEGMENT << k).map(|_| T::default()).collect());
        &segment[offset]
    }

    /// Bytes of cells currently allocated.
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.segments
            .iter()
            .filter_map(OnceLock::get)
            .map(|s| s.len() * std::mem::size_of::<T>())
            .sum()
    }

    /// The first `len` cells in id order, consuming the array one
    /// segment at a time.
    pub(crate) fn into_prefix(self, len: usize) -> impl Iterator<Item = T> {
        self.segments
            .into_iter()
            .filter_map(OnceLock::into_inner)
            .flat_map(<[T]>::into_vec)
            .take(len)
    }
}

/// Packed spill location: bit 63 = published, bits 62..23 = byte offset,
/// bits 22..5 = length, bits 4..0 = worker index.
const LOC_PUBLISHED: u64 = 1 << 63;
const LOC_OFFSET_SHIFT: u32 = 23;
const LOC_LEN_SHIFT: u32 = 5;
const LOC_LEN_MASK: u64 = (1 << 18) - 1;
const LOC_WORKER_MASK: u64 = (1 << 5) - 1;

/// Spill writes are buffered per worker and flushed in chunks this big.
const FLUSH_CHUNK: usize = 1 << 20;

/// How many ways the in-memory LRU tier is sharded.
const LRU_SHARDS: usize = 16;

struct SpillWriter {
    buf: Vec<u8>,
    /// File offset where `buf[0]` will land.
    base: u64,
}

struct SpillFile {
    file: File,
    /// Bytes durably written and safe to `read_at`. ORD-DEDUP-FLUSH-006.
    flushed: AtomicU64,
    /// Owned by the worker the file belongs to; the mutex is for safety,
    /// not sharing (it is uncontended on the append path).
    writer: Mutex<SpillWriter>,
}

#[derive(Default)]
struct LruShard {
    codes: HashMap<u32, Box<[u8]>>,
    order: VecDeque<u32>,
    bytes: usize,
}

/// Running counters a [`SpillStore`] accumulates; drained into the probe
/// at the end of a run.
#[derive(Default)]
pub(crate) struct SpillCounters {
    pub(crate) bytes_spilled: AtomicU64,
    pub(crate) disk_reads: AtomicU64,
    pub(crate) unverified: AtomicU64,
}

/// Append-only on-disk canonical-code store with a sharded LRU front.
///
/// Each worker appends codes it interns to its own unlinked temp file
/// (deleted from the namespace at creation; the kernel reclaims the
/// blocks when the run drops the handle, even on panic). The packed
/// location of every code is published through `locs[id]` before the
/// dedup table's `meta` release, so any reader that found the id can
/// decode where its code lives.
pub(crate) struct SpillStore {
    files: Vec<SpillFile>,
    locs: Segments<AtomicU64>,
    lru: Vec<Mutex<LruShard>>,
    lru_budget_per_shard: usize,
    pub(crate) counters: SpillCounters,
}

impl SpillStore {
    /// `workers` capped at 32 by the loc packing; the engine clamps its
    /// thread count accordingly when spilling.
    pub(crate) fn new(workers: usize, lru_budget_bytes: usize) -> io::Result<Self> {
        assert!(workers <= 32, "spill supports at most 32 workers");
        static STORE_SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir();
        let mut files = Vec::with_capacity(workers);
        for w in 0..workers {
            let path = dir.join(format!("anonreg-spill-{}-{seq}-{w}", std::process::id()));
            let file = File::options()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)?;
            // Unlink immediately: the data lives as long as the handle.
            let _ = std::fs::remove_file(&path);
            files.push(SpillFile {
                file,
                flushed: AtomicU64::new(0),
                writer: Mutex::new(SpillWriter {
                    buf: Vec::with_capacity(FLUSH_CHUNK),
                    base: 0,
                }),
            });
        }
        let lru = (0..LRU_SHARDS)
            .map(|_| Mutex::new(LruShard::default()))
            .collect();
        Ok(SpillStore {
            files,
            locs: Segments::new(),
            lru,
            lru_budget_per_shard: (lru_budget_bytes / LRU_SHARDS).max(1 << 16),
            counters: SpillCounters::default(),
        })
    }

    /// Bytes allocated for the per-id location cells.
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.locs.reserved_bytes()
    }

    fn shard(&self, id: u32) -> &Mutex<LruShard> {
        &self.lru[id as usize % LRU_SHARDS]
    }

    fn cache(&self, id: u32, code: Box<[u8]>) {
        let mut shard = self.shard(id).lock().unwrap();
        if shard.codes.contains_key(&id) {
            return;
        }
        shard.bytes += code.len();
        shard.codes.insert(id, code);
        shard.order.push_back(id);
        while shard.bytes > self.lru_budget_per_shard {
            let Some(victim) = shard.order.pop_front() else {
                break;
            };
            if let Some(evicted) = shard.codes.remove(&victim) {
                shard.bytes -= evicted.len();
            }
        }
    }

    /// Appends `code` for freshly claimed `id` on behalf of `worker`.
    /// Must be called inside the table's `publish` callback so the
    /// location store is ordered before the meta release.
    pub(crate) fn publish(&self, worker: usize, id: u32, code: &[u8]) {
        debug_assert!(
            (code.len() as u64) <= LOC_LEN_MASK,
            "code too large to spill"
        );
        let offset;
        {
            let mut w = self.files[worker].writer.lock().unwrap();
            offset = w.base + w.buf.len() as u64;
            w.buf.extend_from_slice(code);
            if w.buf.len() >= FLUSH_CHUNK {
                self.flush_locked(worker, &mut w);
            }
        }
        self.counters
            .bytes_spilled
            .fetch_add(code.len() as u64, Ordering::Relaxed);
        self.cache(id, code.into());
        let loc = LOC_PUBLISHED
            | offset << LOC_OFFSET_SHIFT
            | (code.len() as u64) << LOC_LEN_SHIFT
            | worker as u64;
        // Ordered before the table's meta Release by ORD-DEDUP-META-002.
        self.locs.get(id as usize).store(loc, Ordering::Release);
    }

    fn flush_locked(&self, worker: usize, w: &mut SpillWriter) {
        if w.buf.is_empty() {
            return;
        }
        write_all_at(&self.files[worker].file, &w.buf, w.base)
            .expect("spill write failed: out of disk space?");
        w.base += w.buf.len() as u64;
        // ORD-DEDUP-FLUSH-006: watermark released only after the bytes hit
        // the file, so a covering read_at is well-defined.
        self.files[worker].flushed.store(w.base, Ordering::Release);
        w.buf.clear();
    }

    /// Compares candidate `id`'s code against `code`.
    ///
    /// Returns `Some(equal)` when the code was retrievable (LRU hit, or
    /// its spill range is below the flushed watermark), `None` when the
    /// bytes are still in another worker's unflushed buffer — the caller
    /// trusts the 128-bit fingerprint and bumps `unverified`.
    pub(crate) fn matches(&self, id: u32, code: &[u8]) -> Option<bool> {
        if let Some(cached) = self.shard(id).lock().unwrap().codes.get(&id) {
            return Some(&**cached == code);
        }
        let loc = self.locs.get(id as usize).load(Ordering::Acquire);
        debug_assert!(loc & LOC_PUBLISHED != 0, "matches() before publish()");
        let offset = (loc >> LOC_OFFSET_SHIFT) & ((1 << 40) - 1);
        let len = (loc >> LOC_LEN_SHIFT & LOC_LEN_MASK) as usize;
        let worker = (loc & LOC_WORKER_MASK) as usize;
        if len != code.len() {
            return Some(false);
        }
        if self.files[worker].flushed.load(Ordering::Acquire) < offset + len as u64 {
            return None;
        }
        let mut buf = vec![0u8; len];
        read_exact_at(&self.files[worker].file, &mut buf, offset)
            .expect("spill read failed beneath the flushed watermark");
        self.counters.disk_reads.fetch_add(1, Ordering::Relaxed);
        let equal = buf == code;
        self.cache(id, buf.into_boxed_slice());
        Some(equal)
    }

    /// Reads back the code for `id`, flushing the owning worker's buffer
    /// if needed. Only sound after all workers have quiesced (used by the
    /// round-trip tests, not the hot path).
    #[cfg(test)]
    pub(crate) fn read_back(&self, id: u32) -> Box<[u8]> {
        if let Some(cached) = self.shard(id).lock().unwrap().codes.get(&id) {
            return cached.clone();
        }
        let loc = self.locs.get(id as usize).load(Ordering::Acquire);
        assert!(loc & LOC_PUBLISHED != 0);
        let offset = (loc >> LOC_OFFSET_SHIFT) & ((1 << 40) - 1);
        let len = (loc >> LOC_LEN_SHIFT & LOC_LEN_MASK) as usize;
        let worker = (loc & LOC_WORKER_MASK) as usize;
        let mut w = self.files[worker].writer.lock().unwrap();
        self.flush_locked(worker, &mut w);
        drop(w);
        let mut buf = vec![0u8; len];
        read_exact_at(&self.files[worker].file, &mut buf, offset).unwrap();
        buf.into_boxed_slice()
    }
}

#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset)
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(buf)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonreg_model::fingerprint::fp128;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    fn no_abort() -> bool {
        false
    }

    /// One intern through a fresh shared guard.
    fn intern(
        table: &FpTable,
        fp: Fp128,
        is_same: impl FnMut(u32) -> bool,
        publish: impl FnMut(u32),
    ) -> Probe {
        table.reader().intern(fp, is_same, publish, no_abort)
    }

    #[test]
    fn intern_assigns_dense_ids_and_finds_duplicates() {
        let table = FpTable::new(1000, 1);
        let codes: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let mut ids = Vec::new();
        for code in &codes {
            let fp = fp128(code);
            match intern(&table, fp, |_| true, |id| ids.push(id)) {
                Probe::Fresh(id) => assert_eq!(id, *ids.last().unwrap()),
                other => panic!("expected fresh, got {other:?}"),
            }
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "ids must be unique");
        assert_eq!(*sorted.last().unwrap(), 99, "ids must be dense");
        for (i, code) in codes.iter().enumerate() {
            let fp = fp128(code);
            match intern(&table, fp, |id| id == ids[i], |_| panic!("no publish")) {
                Probe::Known(id) => assert_eq!(id, ids[i]),
                other => panic!("expected known, got {other:?}"),
            }
        }
        assert_eq!(table.len(), 100);
    }

    #[test]
    fn forced_fingerprint_collisions_probe_to_distinct_slots() {
        // Same 128-bit fingerprint, genuinely different states: is_same
        // disambiguates and each gets its own id.
        let table = FpTable::new(100, 1);
        let fp = Fp128 { lo: 42, hi: 7 };
        let a = match intern(&table, fp, |_| false, |_| {}) {
            Probe::Fresh(id) => id,
            other => panic!("{other:?}"),
        };
        let b = match intern(&table, fp, |id| id == u32::MAX, |_| {}) {
            Probe::Fresh(id) => id,
            other => panic!("{other:?}"),
        };
        assert_ne!(a, b);
        // Each is findable by its own identity.
        assert_eq!(intern(&table, fp, |id| id == a, |_| {}), Probe::Known(a));
        assert_eq!(intern(&table, fp, |id| id == b, |_| {}), Probe::Known(b));
    }

    #[test]
    fn zero_low_half_is_storable() {
        let table = FpTable::new(100, 1);
        let fp = Fp128 { lo: 0, hi: 99 };
        assert_eq!(intern(&table, fp, |_| true, |_| {}), Probe::Fresh(0));
        assert_eq!(intern(&table, fp, |_| true, |_| {}), Probe::Known(0));
    }

    #[test]
    fn limit_is_enforced_and_published() {
        // MIN_SLOTS floors the table, but the limit still honours max_states.
        let table = FpTable::new(3, 1);
        for i in 0..3u32 {
            let fp = fp128(&i.to_le_bytes());
            assert!(matches!(
                intern(&table, fp, |_| true, |_| {}),
                Probe::Fresh(_)
            ));
        }
        let fp = fp128(b"one too many");
        assert_eq!(intern(&table, fp, |_| true, |_| {}), Probe::Limit);
        // The sentinel is published: re-probing the same fingerprint
        // reports Limit instead of spinning.
        assert_eq!(intern(&table, fp, |_| true, |_| {}), Probe::Limit);
        assert_eq!(table.len(), 3);
    }

    /// The table starts small whatever the budget, doubles as it fills,
    /// and every id (and the limit sentinel) survives each migration.
    #[test]
    fn growth_keeps_ids_and_follows_use() {
        let table = FpTable::new(100_000_000, 1);
        let first = table.reserved_bytes();
        assert_eq!(first, MIN_SLOTS * std::mem::size_of::<Slot>());
        let keys = 8 * MIN_SLOTS;
        let mut reader = table.reader();
        for i in 0..keys as u64 {
            let fp = fp128(&i.to_le_bytes());
            assert_eq!(
                reader.intern(fp, |_| true, |_| {}, no_abort),
                Probe::Fresh(i as u32)
            );
        }
        drop(reader);
        // Four doublings put 8×MIN_SLOTS ids at ≤ 50% load.
        assert_eq!(table.reserved_bytes(), 16 * first);
        for i in 0..keys as u64 {
            let fp = fp128(&i.to_le_bytes());
            assert_eq!(
                intern(&table, fp, |id| id == i as u32, |_| {}),
                Probe::Known(i as u32),
                "id of key {i} moved in a migration"
            );
        }
        assert_eq!(table.len(), keys);

        // At its final size the table stops growing and enforces the limit.
        let small = FpTable::new(MIN_SLOTS, 1);
        for i in 0..MIN_SLOTS as u64 {
            let fp = fp128(&i.to_le_bytes());
            assert!(matches!(
                intern(&small, fp, |_| true, |_| {}),
                Probe::Fresh(_)
            ));
        }
        let over = fp128(b"over");
        assert_eq!(intern(&small, over, |_| true, |_| {}), Probe::Limit);
        assert_eq!(small.reserved_bytes(), 2 * first);
        assert_eq!(intern(&small, over, |_| true, |_| {}), Probe::Limit);
    }

    /// Seeded multi-threaded hammer: every thread interns the same key
    /// universe in a seed-dependent order, growing the table from
    /// `MIN_SLOTS` through several doublings; exactly one Fresh claim per
    /// key may win, and all threads must agree on the id each key got.
    #[test]
    fn concurrent_interns_agree_on_ids() {
        const THREADS: usize = 4;
        const KEYS: usize = 8 * MIN_SLOTS;
        for seed in 0u64..8 {
            let table = FpTable::new(KEYS * 2, THREADS);
            assert_eq!(table.reserved_bytes(), MIN_SLOTS * 16);
            let barrier = Barrier::new(THREADS);
            let fps: Vec<Fp128> = (0..KEYS)
                .map(|i| fp128(&(i as u64 ^ seed << 32).to_le_bytes()))
                .collect();
            let observed: Vec<Vec<u32>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let table = &table;
                        let fps = &fps;
                        let barrier = &barrier;
                        s.spawn(move || {
                            barrier.wait();
                            let mut ids = vec![u32::MAX; KEYS];
                            // Seed-dependent visit order + stride makes
                            // threads collide on different keys each run.
                            let stride = (seed as usize * 2 + t * 4 + 1) | 1;
                            let mut k = (t * 31 + seed as usize * 17) % KEYS;
                            // A guard held across several interns, as a
                            // worker holds one per work item.
                            let mut reader = table.reader();
                            for step in 0..KEYS {
                                let i = k;
                                k = (k + stride) % KEYS;
                                let fp = fps[i];
                                let probe = reader.intern(fp, |_| true, |_| {}, no_abort);
                                match probe {
                                    Probe::Fresh(id) | Probe::Known(id) => ids[i] = id,
                                    other => panic!("step {step}: {other:?}"),
                                }
                                if step % 16 == t {
                                    drop(reader);
                                    std::thread::yield_now();
                                    reader = table.reader();
                                }
                            }
                            ids
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            // All threads agree per key; the id set is exactly 0..KEYS.
            let first = &observed[0];
            for other in &observed[1..] {
                assert_eq!(first, other, "seed {seed}: threads disagree on ids");
            }
            let mut all: Vec<u32> = first.clone();
            all.sort_unstable();
            let expect: Vec<u32> = (0..KEYS as u32).collect();
            assert_eq!(all, expect, "seed {seed}: ids not dense/unique");
            assert_eq!(table.len(), KEYS);
            assert_eq!(table.reserved_bytes(), 16 * MIN_SLOTS * 16, "seed {seed}");
        }
    }

    /// Concurrent claimants racing over the limit — while the table is
    /// still growing from `MIN_SLOTS` — must all observe Limit/Fresh
    /// consistently, claim exactly `limit` states and never hang on an
    /// unpublished slot.
    #[test]
    fn concurrent_limit_race_terminates() {
        const THREADS: usize = 4;
        const LIMIT: usize = 5 * MIN_SLOTS;
        for limit in [8, LIMIT] {
            let table = FpTable::new(limit, THREADS);
            let aborted = AtomicBool::new(false);
            let fresh = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let table = &table;
                    let aborted = &aborted;
                    let fresh = &fresh;
                    s.spawn(move || {
                        let mut reader = table.reader();
                        for i in 0..2 * LIMIT as u64 {
                            let fp = fp128(&(i * THREADS as u64 + t as u64).to_le_bytes());
                            match reader.intern(
                                fp,
                                |_| true,
                                |_| {},
                                || aborted.load(Ordering::Relaxed),
                            ) {
                                Probe::Fresh(_) => {
                                    fresh.fetch_add(1, Ordering::Relaxed);
                                }
                                Probe::Known(_) => {}
                                Probe::Limit | Probe::Aborted => {
                                    aborted.store(true, Ordering::Relaxed);
                                    return;
                                }
                            }
                        }
                    });
                }
            });
            assert!(
                aborted.load(Ordering::Relaxed),
                "limit {limit} should have been hit"
            );
            assert_eq!(
                fresh.load(Ordering::Relaxed),
                limit,
                "exactly limit states claimed"
            );
            assert_eq!(table.len(), limit);
        }
    }

    #[test]
    fn segments_allocate_doubling_blocks_on_first_use() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(FIRST_SEGMENT - 1), (0, FIRST_SEGMENT - 1));
        assert_eq!(locate(FIRST_SEGMENT), (1, 0));
        assert_eq!(locate(3 * FIRST_SEGMENT - 1), (1, 2 * FIRST_SEGMENT - 1));
        assert_eq!(locate(3 * FIRST_SEGMENT), (2, 0));
        assert_eq!(locate(u32::MAX as usize).0, SEGMENT_COUNT - 1);

        let cells: Segments<AtomicU64> = Segments::new();
        assert_eq!(cells.reserved_bytes(), 0);
        cells.get(5).store(5, Ordering::Relaxed);
        assert_eq!(cells.reserved_bytes(), FIRST_SEGMENT * 8);
        cells.get(FIRST_SEGMENT).store(7, Ordering::Relaxed);
        assert_eq!(cells.reserved_bytes(), 3 * FIRST_SEGMENT * 8);
        let prefix: Vec<u64> = cells
            .into_prefix(FIRST_SEGMENT + 1)
            .map(AtomicU64::into_inner)
            .collect();
        assert_eq!(prefix.len(), FIRST_SEGMENT + 1);
        assert_eq!((prefix[5], prefix[FIRST_SEGMENT]), (5, 7));
    }

    #[test]
    fn spill_round_trip_is_identity() {
        let spill = SpillStore::new(2, 1 << 20).unwrap();
        // Codes long enough to straddle flush chunks, varied lengths.
        let codes: Vec<Box<[u8]>> = (0..2_000u32)
            .map(|i| {
                (0..(i % 97 + 3) as usize)
                    .map(|j| (i as usize * 131 + j * 7) as u8)
                    .collect()
            })
            .collect();
        for (i, code) in codes.iter().enumerate() {
            spill.publish(i % 2, i as u32, code);
        }
        for (i, code) in codes.iter().enumerate() {
            assert_eq!(
                spill.read_back(i as u32),
                *code,
                "round-trip mismatch at id {i}"
            );
        }
        assert_eq!(
            spill.counters.bytes_spilled.load(Ordering::Relaxed),
            codes.iter().map(|c| c.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn spill_matches_verifies_through_lru_and_disk() {
        // Tiny LRU budget forces disk verification for old ids.
        let spill = SpillStore::new(1, 1).unwrap();
        // 4000 × 600-byte codes ≈ 2.4 MiB: well past the 1 MiB flush
        // chunk, so most ids are covered by the flushed watermark while
        // the tail stays in the write buffer (unverifiable by design).
        let codes: Vec<Box<[u8]>> = (0..4_000u32)
            .map(|i| {
                (0..600)
                    .map(|j| (i as usize).wrapping_mul(131).wrapping_add(j) as u8)
                    .collect()
            })
            .collect();
        for (i, code) in codes.iter().enumerate() {
            spill.publish(0, i as u32, code);
        }
        let mut unverified = 0u32;
        for (i, code) in codes.iter().enumerate() {
            match spill.matches(i as u32, code) {
                Some(equal) => assert!(equal, "own code must match at {i}"),
                None => unverified += 1, // tail still in the write buffer
            }
            assert_ne!(
                spill.matches(i as u32, b"definitely not that code"),
                Some(true),
                "wrong code must not match at {i}"
            );
        }
        assert!(unverified < 4_000, "nothing was verifiable");
        assert!(
            spill.counters.disk_reads.load(Ordering::Relaxed) > 0,
            "LRU budget of 1 byte must force disk reads"
        );
    }
}
