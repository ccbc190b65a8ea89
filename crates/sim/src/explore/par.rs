//! The exploration engine.
//!
//! `run_impl` serves every [`Explorer`](super::Explorer) run — graph or
//! stats mode, one worker or many — with one worker loop:
//!
//! * **Lock-free dedup table** — state identity lives in a growable
//!   open-addressing fingerprint table ([`FpTable`]): one CAS claims a
//!   slot, one release store publishes the id, and readers acquire
//!   through the same word before touching the canonical code (the
//!   Arc-style publication idiom; orderings are certified in
//!   `explore/dedup.rs` and `anonreg_sanitizer::explorer_site_notes`).
//!   A worker holds a shared guard on the table while it interns one
//!   item's successors; the claimant that finds the table half full
//!   migrates it to twice the size. Canonical codes live in an
//!   id-indexed arena of doubling [`Segments`], or — with
//!   [`ExploreConfig::spill`] — in per-worker temp files behind a
//!   sharded LRU tier ([`SpillStore`]), so code bytes no longer bound
//!   the state count by RAM. Nothing is sized from `max_states`, which
//!   only caps the id count.
//! * **States travel with the work items** — a discovered state's
//!   `Simulation` is moved into its frontier entry and, in graph mode,
//!   into its id's node cell together with its edges only after its
//!   expansion.
//! * **Per-worker frontier deques with work stealing** — each worker pops
//!   depth-first from the back of its own deque (keeps the hot end of the
//!   frontier in cache) and steals breadth-first from the front of a
//!   neighbour's when it runs dry. Worker 0 runs on the calling thread;
//!   every worker's phase timer also charges set-up and graph assembly
//!   to [`Phase::Setup`], so a profile covers the whole run.
//!
//! Termination uses a `pending` counter of discovered-but-unexpanded
//! states: a child is counted *before* it is enqueued and its parent is
//! uncounted only *after* every child has been enqueued — by a drop
//! guard, so a worker that panics mid-expansion still releases its item
//! and trips the abort flag instead of hanging the run
//! (`pending == 0` with an empty local scan really means the frontier is
//! globally drained; see `ORD-EXP-PENDING-005` for why Relaxed suffices).
//!
//! With one worker the deque is a plain depth-first stack, successors
//! are interned in expansion order, and state ids are therefore
//! *canonical*: two runs number the states identically. With more
//! workers ids are assigned in race order, so runs number states
//! differently; the *graph* is identical up to that renumbering — the
//! parity suites in `crates/core/tests` check it against an independent
//! reference explorer family by family, with and without partial-order
//! reduction. Under a symmetry mode the stored representative of an
//! orbit is the first *concrete* state to reach the dedup table, so which
//! member represents an orbit (and hence edge event labels) is racy
//! across several workers, but the orbit set — state and edge counts,
//! and every verdict — is deterministic.

use std::collections::VecDeque;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use anonreg_model::fingerprint::{fp128, Fp128};
use anonreg_model::{Machine, SymmetryMode};
use anonreg_obs::{Metric, Phase, PhaseTimer, Probe, Profiler, Span};

use super::dedup::{FpTable, Probe as TableProbe, Reader, Segments, SpillStore};
use super::{
    expand_into, record_timer, report_symmetry, Edge, ExploreConfig, ExploreError, ExploreStats,
    FlushedCounters, PorTally, StateGraph, Successor, GAUGE_SAMPLE_EVERY,
};
use crate::canon::StateEncoder;
use crate::Simulation;

/// How many consecutive empty steal sweeps before an idle worker sleeps
/// instead of spinning. Keeps idle workers cheap when the frontier is
/// momentarily narrower than the worker count (and on single-CPU hosts).
const IDLE_SPINS: u32 = 64;

/// In-memory budget for the spill tier's LRU code cache.
const SPILL_LRU_BUDGET: usize = 64 << 20;

/// How many successors a worker encodes and fingerprints before probing
/// the shared table. Batching keeps the encode+hash loop hot in the
/// worker's own cache lines instead of interleaving every fingerprint
/// with a (possibly contended) table probe; the batch is drained through
/// the table in expansion order, so intern order — and therefore every
/// count — is bit-identical to the unbatched loop.
const FP_BATCH: usize = 8;

/// Discovery parent of a state: `(parent id, moving process, was a
/// crash)`.
type Parent = (u32, u32, bool);

/// A discovered-but-unexpanded state. The frontier owns the only
/// `Simulation` clone of the state until it is expanded.
struct WorkItem<M: Machine> {
    id: u32,
    depth: u32,
    sim: Simulation<M>,
    /// Graph mode: where the state was discovered from.
    parent: Option<Parent>,
}

/// Graph mode: one expanded state, filed under its id.
struct Node<M: Machine> {
    sim: Simulation<M>,
    edges: Vec<Edge<M::Event>>,
    parent: Option<Parent>,
}

/// Everything the workers share.
struct Ctx<M: Machine> {
    table: FpTable,
    /// Canonical code arena, indexed by id (`None` when spilling).
    /// A code is set before its id's table slot is published, so a
    /// reader that found the id always finds the code
    /// (ORD-DEDUP-META-002).
    codes: Option<Segments<OnceLock<Box<[u8]>>>>,
    /// On-disk code store (`Some` exactly when `codes` is `None`).
    spill: Option<SpillStore>,
    /// Graph mode: every expanded state with its edges, by id. (A mutex
    /// rather than a `OnceLock` per cell: machines are `Send`, not
    /// `Sync`.)
    nodes: Option<Segments<Mutex<Option<Node<M>>>>>,
    /// One frontier deque per worker.
    queues: Vec<Mutex<VecDeque<WorkItem<M>>>>,
    /// Discovered-but-unexpanded states (see module docs).
    /// ORD-EXP-PENDING-005: Relaxed — on this single counter, every
    /// child's increment precedes its parent's decrement in the
    /// incrementing thread's program order, so coherence alone
    /// guarantees a zero is only ever observed once the frontier is
    /// truly drained.
    pending: AtomicUsize,
    /// Advisory stop flag (state limit hit or a sibling panicked).
    /// ORD-EXP-ABORT-007: Relaxed — no data rides on it; the authoritative
    /// error is decided on the main thread after the joins.
    aborted: AtomicBool,
    /// Maximum discovery depth seen.
    max_depth: AtomicU64,
    crashes: bool,
    por: bool,
}

impl<M: Machine + Eq + Hash> Ctx<M> {
    /// Offers `code` (fingerprinted as `fp`) to the dedup table through
    /// `reader` on behalf of worker `me`.
    fn intern(&self, reader: &mut Reader<'_>, me: usize, fp: Fp128, code: &[u8]) -> TableProbe {
        let should_abort = || self.aborted.load(Ordering::Relaxed);
        if let Some(spill) = &self.spill {
            reader.intern(
                fp,
                |id| match spill.matches(id, code) {
                    Some(equal) => equal,
                    None => {
                        // Still buffered by another worker: trust the
                        // 128-bit fingerprint, count the leap of faith.
                        spill.counters.unverified.fetch_add(1, Ordering::Relaxed);
                        true
                    }
                },
                |id| spill.publish(me, id, code),
                should_abort,
            )
        } else {
            let codes = self.codes.as_ref().expect("no-spill mode has a code arena");
            reader.intern(
                fp,
                |id| codes.get(id as usize).get().is_some_and(|c| **c == *code),
                |id| {
                    let stored = codes.get(id as usize).set(code.into());
                    debug_assert!(stored.is_ok(), "each id is published exactly once");
                },
                should_abort,
            )
        }
    }

    /// Bytes allocated for the dedup table, the code arena or spill
    /// locations, and the node store.
    fn reserved_bytes(&self) -> usize {
        self.table.reserved_bytes()
            + self.codes.as_ref().map_or(0, Segments::reserved_bytes)
            + self.spill.as_ref().map_or(0, SpillStore::reserved_bytes)
            + self.nodes.as_ref().map_or(0, Segments::reserved_bytes)
    }
}

/// Releases one unit of `pending` when an expansion ends — normally or
/// by unwinding. A panicking worker additionally trips the abort flag so
/// its siblings drain and exit instead of waiting for work that will
/// never come; the calling thread turns the panic into
/// [`ExploreError::WorkerPanicked`].
struct PendingGuard<'a> {
    pending: &'a AtomicUsize,
    aborted: &'a AtomicBool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.aborted.store(true, Ordering::Relaxed);
        }
        // ORD-EXP-PENDING-005.
        self.pending.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What one worker brings home: its tallies.
#[derive(Default)]
struct WorkerOut {
    /// States expanded.
    expanded: u64,
    /// States this worker discovered (interned as `Fresh`).
    fresh: u64,
    /// Dedup hits this worker observed (interned as `Known`).
    dedup: u64,
    /// Work items stolen from other workers.
    steals: u64,
    /// Transitions recorded.
    edge_total: u64,
    /// Ample-set reduction tallies.
    por: PorTally,
}

/// Pops the next work item: own deque from the back, else a sweep of the
/// other workers' deques from the front.
fn pop_work<M: Machine>(me: usize, ctx: &Ctx<M>, steals: &mut u64) -> Option<WorkItem<M>> {
    if let Some(item) = ctx.queues[me].lock().expect("queue lock").pop_back() {
        return Some(item);
    }
    let n = ctx.queues.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        if let Some(item) = ctx.queues[victim].lock().expect("queue lock").pop_front() {
            *steals += 1;
            return Some(item);
        }
    }
    None
}

/// One worker's main loop. `timer` is the worker's phase timer, if a
/// profiler is attached; the caller records it.
fn worker<M, P>(
    me: usize,
    ctx: &Ctx<M>,
    probe: &P,
    encoder: &StateEncoder<M>,
    timer: &mut Option<PhaseTimer>,
) -> WorkerOut
where
    M: Machine + Eq + Hash,
    P: Probe,
{
    if P::ENABLED {
        probe.span_open(Span::ExploreWorker, me as u64);
    }
    let mut out = WorkerOut::default();
    // When the encoder detected a trivial symmetry group it already
    // short-circuits to the plain identity path, so timing it as
    // canonicalization would charge symmetry reduction for work it no
    // longer does; count the skipped encodes instead.
    let track_canon =
        P::ENABLED && encoder.mode() != SymmetryMode::Off && !encoder.skips_trivial_orbits();
    let track_skipped = P::ENABLED && encoder.skips_trivial_orbits();
    // In spill mode the intern probe includes the LRU/file tier; charge
    // it to the spill phase so profiles separate table time from IO.
    let intern_phase = if ctx.spill.is_some() {
        Phase::Spill
    } else {
        Phase::Dedup
    };
    let collect_graph = ctx.nodes.is_some();
    let mut canon_nanos = 0u64;
    let mut symmetry_hits = 0u64;
    let mut canon_skipped = 0u64;
    let mut flushed = FlushedCounters::default();
    let mut successors: Vec<Successor<M>> = Vec::new();
    let mut batch: Vec<(Successor<M>, Box<[u8]>, Fp128)> = Vec::with_capacity(FP_BATCH);
    let mut idle = 0u32;
    'outer: while !ctx.aborted.load(Ordering::Relaxed) {
        if let Some(t) = timer.as_mut() {
            t.switch(Phase::Steal);
        }
        let Some(item) = pop_work(me, ctx, &mut out.steals) else {
            if ctx.pending.load(Ordering::Relaxed) == 0 {
                break;
            }
            if let Some(t) = timer.as_mut() {
                t.switch(Phase::Idle);
            }
            idle += 1;
            if idle >= IDLE_SPINS {
                std::thread::sleep(std::time::Duration::from_micros(50));
            } else {
                std::thread::yield_now();
            }
            continue;
        };
        idle = 0;
        let WorkItem {
            id,
            depth,
            sim: state,
            parent,
        } = item;
        // From here the popped item is accounted for even if a machine
        // panics mid-step.
        let _guard = PendingGuard {
            pending: &ctx.pending,
            aborted: &ctx.aborted,
        };
        if let Some(t) = timer.as_mut() {
            t.switch(Phase::Step);
        }
        out.por
            .absorb(expand_into(&state, ctx.crashes, ctx.por, &mut successors));
        let mut edges_out = Vec::with_capacity(if collect_graph { successors.len() } else { 0 });
        // One shared table guard per item: a migration waits at most for
        // the items in flight.
        let mut reader = ctx.table.reader();
        // Batched fingerprinting: encode + hash up to FP_BATCH successors
        // back-to-back, then drain them through the shared table in the
        // same order the unbatched loop would have used.
        let mut pending_succs = successors.drain(..);
        loop {
            if let Some(t) = timer.as_mut() {
                t.switch(Phase::Canon);
            }
            batch.clear();
            while batch.len() < FP_BATCH {
                let Some(succ) = pending_succs.next() else {
                    break;
                };
                let code = if track_canon {
                    let start = Instant::now();
                    let (code, moved) = encoder.encode(&succ.sim);
                    canon_nanos += start.elapsed().as_nanos() as u64;
                    symmetry_hits += u64::from(moved);
                    code
                } else {
                    canon_skipped += u64::from(track_skipped);
                    encoder.encode(&succ.sim).0
                };
                let fp = fp128(&code);
                batch.push((succ, code, fp));
            }
            if batch.is_empty() {
                break;
            }
            if let Some(t) = timer.as_mut() {
                t.switch(intern_phase);
            }
            for (succ, code, fp) in batch.drain(..) {
                let target = match ctx.intern(&mut reader, me, fp, &code) {
                    TableProbe::Known(t) => {
                        out.dedup += 1;
                        t
                    }
                    TableProbe::Fresh(t) => {
                        out.fresh += 1;
                        // Count the child before enqueueing it so `pending`
                        // never under-reports outstanding work.
                        ctx.pending.fetch_add(1, Ordering::Relaxed);
                        ctx.queues[me]
                            .lock()
                            .expect("queue lock")
                            .push_back(WorkItem {
                                id: t,
                                depth: depth + 1,
                                sim: succ.sim,
                                parent: collect_graph.then_some((id, succ.proc as u32, succ.crash)),
                            });
                        ctx.max_depth
                            .fetch_max(u64::from(depth) + 1, Ordering::Relaxed);
                        t
                    }
                    TableProbe::Limit | TableProbe::Aborted => {
                        ctx.aborted.store(true, Ordering::Relaxed);
                        break 'outer;
                    }
                };
                out.edge_total += 1;
                if collect_graph {
                    edges_out.push(Edge {
                        proc: succ.proc,
                        target: target as usize,
                        events: succ.event.into_iter().collect(),
                        crash: succ.crash,
                    });
                }
            }
        }
        drop(reader);
        if let Some(nodes) = &ctx.nodes {
            let previous = nodes
                .get(id as usize)
                .lock()
                .expect("node lock")
                .replace(Node {
                    sim: state,
                    edges: edges_out,
                    parent,
                });
            debug_assert!(previous.is_none(), "each id is expanded exactly once");
        }
        out.expanded += 1;
        if P::ENABLED && out.expanded % GAUGE_SAMPLE_EVERY as u64 == 0 {
            probe.gauge(
                Metric::ExploreFrontier,
                0,
                ctx.pending.load(Ordering::Relaxed) as u64,
            );
            probe.gauge(
                Metric::ExploreDepth,
                0,
                ctx.max_depth.load(Ordering::Relaxed),
            );
            flushed.flush(probe, me as u64, out.fresh, out.edge_total, out.dedup);
        }
    }
    if P::ENABLED {
        flushed.finish(probe, me as u64, out.fresh, out.edge_total, out.dedup);
        probe.counter(Metric::ExploreSteals, me as u64, out.steals);
        report_symmetry(probe, me as u64, symmetry_hits, canon_nanos, canon_skipped);
        out.por.report(probe, me as u64);
        probe.span_close(Span::ExploreWorker, me as u64, out.expanded);
    }
    // Until the joins: waiting for the siblings.
    if let Some(t) = timer.as_mut() {
        t.switch(Phase::Idle);
    }
    out
}

/// Explores the reachable graph of `initial` with `threads` workers,
/// materialising the [`StateGraph`] when `collect_graph` is set.
///
/// With a profiler attached, every worker's timer spans the whole run:
/// it opens in [`Phase::Setup`] before the table is built (a spawned
/// worker's stays there until its thread starts), and all return to it
/// for graph assembly once the workers are joined, so `workers × wall`
/// is attributed end to end.
pub(super) fn run_impl<M, P>(
    initial: Simulation<M>,
    config: &ExploreConfig,
    probe: &P,
    threads: usize,
    encoder: &StateEncoder<M>,
    profiler: Option<&Profiler>,
    collect_graph: bool,
) -> Result<(Option<StateGraph<M>>, ExploreStats), ExploreError>
where
    M: Machine + Eq + Hash,
    P: Probe,
{
    // The spill location packs a 5-bit worker index.
    let threads = if config.spill {
        threads.min(32)
    } else {
        threads
    };
    let mut timers: Vec<Option<PhaseTimer>> = (0..threads)
        .map(|i| {
            profiler.map(|p| {
                let mut timer = p.timer(i as u64);
                timer.switch(Phase::Setup);
                timer
            })
        })
        .collect();
    let result = run_timed(initial, config, probe, encoder, collect_graph, &mut timers);
    for timer in timers {
        record_timer(profiler, timer);
    }
    result
}

/// [`run_impl`] with one (optional) phase timer per worker.
#[allow(clippy::too_many_lines)]
fn run_timed<M, P>(
    initial: Simulation<M>,
    config: &ExploreConfig,
    probe: &P,
    encoder: &StateEncoder<M>,
    collect_graph: bool,
    timers: &mut [Option<PhaseTimer>],
) -> Result<(Option<StateGraph<M>>, ExploreStats), ExploreError>
where
    M: Machine + Eq + Hash,
    P: Probe,
{
    let threads = timers.len();
    let mut initial = initial;
    initial.clear_trace();

    if P::ENABLED {
        probe.span_open(Span::Explore, 0);
    }

    let ctx = Ctx {
        table: FpTable::new(config.max_states, threads),
        codes: (!config.spill).then(Segments::new),
        spill: config.spill.then(|| {
            SpillStore::new(threads, SPILL_LRU_BUDGET).expect("spill temp files must be creatable")
        }),
        nodes: collect_graph.then(Segments::new),
        queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: AtomicUsize::new(0),
        aborted: AtomicBool::new(false),
        max_depth: AtomicU64::new(0),
        crashes: config.crashes,
        por: config.por,
    };

    let (code, _) = encoder.encode(&initial);
    let fp = fp128(&code);
    match ctx.intern(&mut ctx.table.reader(), 0, fp, &code) {
        TableProbe::Fresh(id) => debug_assert_eq!(id, 0, "first interned state is state 0"),
        TableProbe::Known(_) | TableProbe::Aborted => {
            unreachable!("the dedup table starts empty and nothing can abort yet")
        }
        TableProbe::Limit => {
            if P::ENABLED {
                report_totals(probe, 0, 0, &[]);
                probe.span_close(Span::Explore, 0, 0);
            }
            return Err(ExploreError::StateLimitExceeded {
                limit: config.max_states,
            });
        }
    }
    ctx.pending.store(1, Ordering::Relaxed);
    ctx.queues[0]
        .lock()
        .expect("queue lock")
        .push_back(WorkItem {
            id: 0,
            depth: 0,
            sim: initial,
            parent: None,
        });

    // Worker 0 runs here, so a one-worker run spawns no thread.
    let joins: Vec<std::thread::Result<WorkerOut>> = std::thread::scope(|s| {
        let ctx = &ctx;
        let (first, rest) = timers.split_first_mut().expect("at least one worker");
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, timer)| s.spawn(move || worker(i + 1, ctx, probe, encoder, timer)))
            .collect();
        let first = catch_unwind(AssertUnwindSafe(|| worker(0, ctx, probe, encoder, first)));
        std::iter::once(first)
            .chain(handles.into_iter().map(std::thread::ScopedJoinHandle::join))
            .collect()
    });
    for timer in timers.iter_mut().flatten() {
        timer.switch(Phase::Setup);
    }
    let panicked = joins.iter().any(std::thread::Result::is_err);
    let outs: Vec<WorkerOut> = joins.into_iter().filter_map(Result::ok).collect();

    let total = ctx.table.len();
    let edge_total: u64 = outs.iter().map(|o| o.edge_total).sum();
    let stats = ExploreStats {
        states: total as u64,
        edges: edge_total,
        dedup: outs.iter().map(|o| o.dedup).sum(),
        max_depth: u32::try_from(ctx.max_depth.load(Ordering::Relaxed)).unwrap_or(u32::MAX),
    };

    if P::ENABLED {
        report_totals(probe, total as u64, edge_total, &outs);
        if let Some(spill) = &ctx.spill {
            probe.counter(
                Metric::SpillBytes,
                0,
                spill.counters.bytes_spilled.load(Ordering::Relaxed),
            );
            probe.counter(
                Metric::SpillReads,
                0,
                spill.counters.disk_reads.load(Ordering::Relaxed),
            );
            probe.counter(
                Metric::DedupUnverified,
                0,
                spill.counters.unverified.load(Ordering::Relaxed),
            );
        }
        probe.gauge(Metric::ExploreFrontier, 0, 0);
        probe.gauge(
            Metric::ExploreDepth,
            0,
            ctx.max_depth.load(Ordering::Relaxed),
        );
        probe.gauge(Metric::ExploreReservedBytes, 0, ctx.reserved_bytes() as u64);
        probe.span_close(Span::Explore, 0, total as u64);
    }

    if panicked {
        return Err(ExploreError::WorkerPanicked);
    }
    if ctx.aborted.load(Ordering::Relaxed) {
        return Err(ExploreError::StateLimitExceeded {
            limit: config.max_states,
        });
    }
    let Some(nodes) = ctx.nodes else {
        return Ok((None, stats));
    };

    let mut states = Vec::with_capacity(total);
    let mut edges = Vec::with_capacity(total);
    let mut parents = Vec::with_capacity(total);
    for node in nodes.into_prefix(total) {
        let node = node
            .into_inner()
            .expect("node lock")
            .expect("every interned id was expanded");
        states.push(node.sim);
        edges.push(node.edges);
        parents.push(
            node.parent
                .map(|(parent, proc, crash)| (parent as usize, proc as usize, crash)),
        );
    }
    Ok((
        Some(StateGraph {
            states,
            edges,
            parents,
        }),
        stats,
    ))
}

/// Emits the counter remainders the workers did not flush themselves:
/// the initial interned state (discovered by `run_timed`, not by any
/// worker) and, on an aborted run, ids assigned past the flushed counts.
/// Dedup hits are fully flushed per worker (keyed by worker index), so
/// only states and edges can have a remainder.
fn report_totals<P: Probe>(probe: &P, states: u64, edges: u64, outs: &[WorkerOut]) {
    let flushed_states: u64 = outs.iter().map(|o| o.fresh).sum();
    let flushed_edges: u64 = outs.iter().map(|o| o.edge_total).sum();
    probe.counter(
        Metric::ExploreStates,
        0,
        states.saturating_sub(flushed_states),
    );
    probe.counter(Metric::ExploreEdges, 0, edges.saturating_sub(flushed_edges));
}
