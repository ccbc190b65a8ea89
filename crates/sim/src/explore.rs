//! Exhaustive explicit-state model checking.
//!
//! For fixed process count and register count, the paper's algorithms have
//! **finite** state spaces: register contents range over finitely many
//! values and each machine has finitely many local states. [`Explorer`]
//! enumerates every configuration reachable under *any* adversary and
//! returns a [`StateGraph`] on which two kinds of questions are decided
//! exactly:
//!
//! * **Safety** — [`StateGraph::find_state`] searches for a bad
//!   configuration (e.g. two processes in their critical sections, the
//!   mutual exclusion violation of §3.1), and
//!   [`StateGraph::schedule_to`] reconstructs the adversary schedule that
//!   reaches it, making every counterexample replayable.
//! * **Fair liveness** — [`StateGraph::find_fair_livelock`] looks for a
//!   strongly connected component in which every live process keeps taking
//!   steps but no progress event ever fires. Such a component is exactly a
//!   *fair livelock*: an infinite schedule that starves the system even
//!   though no process is ever denied steps. This is how experiment E1
//!   refutes deadlock-freedom for the Figure 1 algorithm with an even
//!   number of registers (Theorem 3.1) — the checker finds the symmetric
//!   lock-step loop.
//!
//! # The `Explorer` builder
//!
//! All exploration goes through one entry point:
//!
//! ```ignore
//! let graph = Explorer::new(sim)
//!     .max_states(500_000)   // or .limits(ExploreConfig { .. })
//!     .crashes(true)         // also explore crash transitions
//!     .parallelism(4)        // worker threads (0 = one per CPU)
//!     .probe(&probe)         // live metrics (optional)
//!     .run()?;
//! ```
//!
//! One engine serves every run: worker threads with per-worker frontier
//! deques and work stealing, deduplicating through a growable lock-free
//! fingerprint table whose memory follows the states actually found
//! (`max_states` is a budget, never a reservation). With
//! `parallelism(1)` (the default) the single worker expands depth-first
//! in a fixed order and state ids are *canonical*: two runs number the
//! states identically, so golden tests and recorded
//! [`StateGraph::schedule_to`] replays stay stable. With more workers the
//! same graph is explored — same states, same transition structure — but
//! discovery order, and therefore the numbering, depends on the race
//! between workers. Analyses on [`StateGraph`] are order-independent (see
//! [`StateGraph::nontrivial_sccs`]), so results agree either way.

use std::fmt;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use anonreg_model::fingerprint::Fp128;
use anonreg_model::structural::StructuralHasher;
use anonreg_model::{Machine, PidMap, SymmetryMode, View};
use anonreg_obs::{Metric, NoopProbe, Probe, Profiler};

use crate::canon::StateEncoder;
use crate::{Simulation, StepOutcome};

pub mod cert;
mod dedup;
mod par;

/// Configuration for an [`Explorer`] run: resource limits, the failure
/// model, and the degree of parallelism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Maximum number of distinct states to enumerate before giving up.
    pub max_states: usize,
    /// Also explore *crash* transitions: from every state, every live
    /// process may crash (§2's failure model). Roughly doubles the state
    /// space per process; off by default.
    pub crashes: bool,
    /// Number of worker threads. `1` (the default) explores on the
    /// calling thread alone, with canonical state ids; `0` means "one
    /// worker per available CPU"; `n > 1` adds `n - 1` spawned workers
    /// that steal from each other, numbering states in race order.
    pub parallelism: usize,
    /// Ample-set partial-order reduction: when some live processes are
    /// poised at a register-free local step (an event or a halt), explore
    /// only those processes from that state and prune the other
    /// interleavings. See [`Explorer::por`] for the soundness argument.
    /// Incompatible with [`crashes`](ExploreConfig::crashes).
    pub por: bool,
    /// Spill interned canonical codes to disk behind an in-memory LRU
    /// tier, at any worker count, so the dedup table's memory use no
    /// longer grows with the code bytes of every distinct state. See
    /// [`Explorer::spill`].
    pub spill: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: 1_000_000,
            crashes: false,
            parallelism: 1,
            por: false,
            spill: false,
        }
    }
}

/// Error returned when exploration exceeds its limits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExploreError {
    /// The reachable state space exceeded [`ExploreConfig::max_states`].
    StateLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// An exploration worker — the calling thread's or a spawned one —
    /// panicked mid-expansion. The run shut down cleanly (the panicking
    /// worker's pending count was released by a drop guard, so the
    /// siblings drained and exited), but the graph is incomplete and no
    /// verdict can be drawn from it.
    WorkerPanicked,
    /// Partial-order reduction was requested together with crash
    /// transitions. §2's crash is enabled from *every* state and is
    /// never independent of the crashing process's own pending step, so
    /// no ample set smaller than the full successor set is sound there;
    /// the combination is rejected rather than silently unsound.
    PorWithCrashes,
    /// Partial-order reduction was requested together with
    /// [`SymmetryMode::Full`]. Full-mode canonicalization renumbers
    /// identifiers, which un-pins process slots: an orbit
    /// representative's ample set need not match its siblings', so the
    /// reduction could prune interleavings the symmetry quotient still
    /// needs. [`SymmetryMode::Registers`] keeps slots pinned and
    /// composes soundly (see [`Explorer::por`]).
    PorWithFullSymmetry,
    /// Emitting or re-reading a reachability certificate failed after
    /// the exploration itself succeeded. The message carries the
    /// underlying [`anonreg_cache::CertError`] or IO failure.
    Certificate {
        /// Human-readable cause.
        message: String,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::StateLimitExceeded { limit } => {
                write!(f, "state space exceeds the limit of {limit} states")
            }
            ExploreError::WorkerPanicked => {
                write!(f, "an exploration worker panicked; the run was aborted")
            }
            ExploreError::PorWithCrashes => {
                write!(
                    f,
                    "partial-order reduction cannot be combined with crash \
                     transitions (no ample set is sound under §2's crash model)"
                )
            }
            ExploreError::PorWithFullSymmetry => {
                write!(
                    f,
                    "partial-order reduction cannot be combined with \
                     SymmetryMode::Full (identifier renumbering un-pins process \
                     slots, so an orbit representative's ample set need not \
                     match its siblings'); SymmetryMode::Registers composes \
                     soundly"
                )
            }
            ExploreError::Certificate { message } => {
                write!(f, "certificate error: {message}")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// One outgoing transition of a state: process `proc` takes one atomic step,
/// emitting `events` on the way, and the system moves to state `target`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edge<E> {
    /// The process that moves.
    pub proc: usize,
    /// The id of the successor state.
    pub target: usize,
    /// Events emitted during the step (usually empty or a single event).
    pub events: Vec<E>,
    /// `true` if this transition is the process *crashing* rather than
    /// taking a step (only with [`ExploreConfig::crashes`]).
    pub crash: bool,
}

/// One adversary move in a reconstructed schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleAction {
    /// Process takes one atomic step.
    Step(usize),
    /// Process crashes.
    Crash(usize),
}

/// The complete reachable state graph of a simulation.
///
/// State `0` is the initial configuration. Each state stores the full
/// [`Simulation`] (with an empty trace), so analyses can inspect machines
/// and registers directly.
pub struct StateGraph<M: Machine> {
    states: Vec<Simulation<M>>,
    edges: Vec<Vec<Edge<M::Event>>>,
    /// `parents[id]` = (predecessor state, moving process, was-a-crash);
    /// `None` for the initial state. Used to reconstruct adversary
    /// schedules.
    parents: Vec<Option<(usize, usize, bool)>>,
}

/// The single entry point for state-space exploration.
///
/// Build with [`Explorer::new`], adjust with the chainable setters, then
/// [`Explorer::run`]:
///
/// ```ignore
/// let graph = Explorer::new(sim).max_states(100_000).parallelism(4).run()?;
/// ```
///
/// The default configuration matches [`ExploreConfig::default`]: one
/// million states, no crash transitions, one (deterministic) worker.
#[must_use = "an Explorer does nothing until `.run()` is called"]
pub struct Explorer<'p, M: Machine, P: Probe = NoopProbe> {
    initial: Simulation<M>,
    config: ExploreConfig,
    probe: &'p P,
    encoder: StateEncoder<M>,
    profiler: Option<Arc<Profiler>>,
    /// Where [`Explorer::run`] writes a reachability certificate, if
    /// anywhere.
    certify: Option<PathBuf>,
    /// Named verdict predicates evaluated on the finished graph and
    /// recorded in the certificate.
    verdicts: Vec<(String, cert::VerdictFn<M>)>,
}

/// The probe target for unprobed explorations.
static SILENT: NoopProbe = NoopProbe;

impl<M> Explorer<'static, M, NoopProbe>
where
    M: Machine + Eq + Hash,
{
    /// Starts configuring an exploration from `initial`. The accumulated
    /// trace of `initial` is ignored; state identity is the pair
    /// (register contents, machine states incl. pending reads/poised
    /// writes).
    pub fn new(initial: Simulation<M>) -> Self {
        Explorer {
            initial,
            config: ExploreConfig::default(),
            probe: &SILENT,
            encoder: StateEncoder::plain(),
            profiler: None,
            certify: None,
            verdicts: Vec::new(),
        }
    }
}

impl<'p, M, P> Explorer<'p, M, P>
where
    M: Machine + Eq + Hash,
    P: Probe,
{
    /// Replaces the whole configuration at once.
    pub fn limits(mut self, config: ExploreConfig) -> Self {
        self.config = config;
        self
    }

    /// Caps the number of distinct states to enumerate.
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.config.max_states = max_states;
        self
    }

    /// Also explores crash transitions (§2's failure model).
    pub fn crashes(mut self, crashes: bool) -> Self {
        self.config.crashes = crashes;
        self
    }

    /// Enables ample-set partial-order reduction.
    ///
    /// When one or more live processes are poised at a **register-free
    /// local step** — their next step is an event announcement or a halt,
    /// not a read or a write — those processes form the state's *ample
    /// set* and only their transitions are explored; the reads and writes
    /// of the remaining processes are deferred to the successor states.
    ///
    /// Soundness rests on three facts about this substrate:
    ///
    /// 1. **Independence.** An event/halt step touches no shared register
    ///    and only its own process slot, so it commutes with every step
    ///    of every other process: both orders reach the same
    ///    configuration, and the deferred steps are still enabled after
    ///    it (events never disable a read or write of another process).
    /// 2. **Invisibility of the pruned orders.** The crate-wide contract
    ///    (see [`Simulation::step`] and the family machines) is that
    ///    observable milestones — critical-section membership, decision
    ///    values, leadership — change *only at event steps*. The pruned
    ///    interleavings differ from the kept one only in where another
    ///    process's read/write lands relative to the event, and reads
    ///    and writes change no milestone, so every predicate checked by
    ///    the analyses sees a stutter-equivalent run. Note the ample set
    ///    is **all** event-poised processes, never a proper subset: two
    ///    simultaneously poised events (say, two `Enter`s) are genuinely
    ///    dependent — dropping one would hide the overlap state that
    ///    mutual-exclusion checking exists to find.
    /// 3. **No event cycles.** A machine performs a memory operation or
    ///    halts after finitely many events ([`Simulation::run_solo`]
    ///    enforces this with a fuse), so ample-only expansion cannot
    ///    postpone the rest of the system forever.
    ///
    /// Crash transitions break fact 1 — §2's crash is enabled everywhere
    /// and races the crashing process's own poised step — so
    /// [`Explorer::run`] rejects `por` + `crashes` with
    /// [`ExploreError::PorWithCrashes`].
    ///
    /// Composition with [`Explorer::symmetry`]:
    /// [`SymmetryMode::Registers`] is allowed — register renaming never
    /// touches process slots, so the ample set (a set of process
    /// *indices* poised at local steps) is identical across every member
    /// of an orbit, and the reduced quotient graph is the quotient of
    /// the reduced graph. In practice the view-compatible register group
    /// is trivial for the pinned-view families, so the trivial-orbit
    /// fast path makes the composition exact as well as sound.
    /// [`SymmetryMode::Full`] renumbers identifiers and can merge states
    /// whose ample sets differ; that combination is rejected with
    /// [`ExploreError::PorWithFullSymmetry`].
    ///
    /// The reduced graph has fewer states and edges; safety, fair-
    /// livelock and starvation verdicts are unchanged (enforced across
    /// every family and worker count by the POR parity suite).
    pub fn por(mut self, por: bool) -> Self {
        self.config.por = por;
        self
    }

    /// Spills interned canonical codes to per-worker temp files behind
    /// a sharded in-memory LRU tier, at any worker count.
    ///
    /// Dedup candidates are verified against the LRU, then against the
    /// spill file when the bytes are already flushed; a candidate whose
    /// code is still buffered by another worker is matched on its
    /// 128-bit fingerprint alone (collision probability below 2⁻⁷⁰ at
    /// 10⁸ states) and counted in the `dedup_unverified` probe metric.
    pub fn spill(mut self, spill: bool) -> Self {
        self.config.spill = spill;
        self
    }

    /// Sets the number of worker threads: `1` for a single worker on the
    /// calling thread (canonical state ids), `0` for one worker per
    /// available CPU, `n > 1` for `n` work-stealing workers.
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Attaches a live [`Probe`].
    ///
    /// The exploration then emits `explore_states`/`explore_edges`/
    /// `explore_dedup` counters (dedup counters and `explore_steals` are
    /// keyed by worker), sampled `explore_frontier`/`explore_depth`
    /// gauges (final values exact), one `explore` span whose length is
    /// the number of distinct states, and one `explore_worker` span per
    /// worker whose length is the number of states that worker expanded.
    /// Counters are flushed incrementally on the gauge sampling cadence
    /// (totals stay exact), so a live stream attached to the probe sees
    /// the exploration progress while it is still running. With
    /// [`NoopProbe`] the instrumentation compiles away.
    pub fn probe<'q, Q: Probe>(self, probe: &'q Q) -> Explorer<'q, M, Q> {
        Explorer {
            initial: self.initial,
            config: self.config,
            probe,
            encoder: self.encoder,
            profiler: self.profiler,
            certify: self.certify,
            verdicts: self.verdicts,
        }
    }

    /// Attaches a wall-clock [`Profiler`].
    ///
    /// Each worker then keeps an [`anonreg_obs::Phase`] timer — `step`
    /// (clone + machine step), `canon` (canonical/plain encoding),
    /// `dedup` (table probe and growth; `spill` when spilling),
    /// `steal`/`idle` — and records its per-phase self-times into the
    /// profiler when the exploration ends, including on the state-limit
    /// error path. Every worker's tree spans the whole run: table
    /// set-up, the wait for a spawned worker's thread, and graph assembly
    /// are charged to `setup`, and the wait for sibling workers to finish
    /// to `idle`. Runs without a profiler pay nothing.
    pub fn profiler(mut self, profiler: Arc<Profiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Enables symmetry reduction: states are deduplicated by the
    /// canonical code of their orbit under `mode`'s permutation group
    /// (see [`Simulation::canonical_code`]), so only one representative
    /// per orbit is stored and expanded.
    ///
    /// Every stored state is still a *concretely reachable*
    /// configuration — the first member of its orbit the engine
    /// discovered — so [`StateGraph::schedule_to`] replays keep working
    /// verbatim. Edge targets point at orbit representatives; analyses of
    /// *symmetric* predicates (mutual exclusion, deadlock, agreement…)
    /// are unaffected, while predicates naming a specific process index
    /// are answered up to symmetry.
    ///
    /// [`SymmetryMode::Registers`] is sound for every machine;
    /// [`SymmetryMode::Full`] additionally assumes the algorithm is
    /// *symmetric* in the Theorem 3.4 sense (identifiers admit only
    /// equality comparisons) — true for all the paper's anonymous
    /// algorithms.
    pub fn symmetry(mut self, mode: SymmetryMode) -> Self
    where
        M: PidMap,
        M::Value: PidMap,
    {
        let views: Vec<View> = (0..self.initial.process_count())
            .map(|i| self.initial.view(i).clone())
            .collect();
        self.encoder = StateEncoder::for_mode(mode, &views, &self.initial);
        self
    }

    /// Also writes a reachability certificate to `path` when the
    /// exploration completes (see [`Explorer::run`] and the
    /// `anonreg-cache` crate). The certificate is keyed by
    /// [`Explorer::structural_hash`] and records the canonical state
    /// set, the edge multiset, and every [`Explorer::verdict`]'s value
    /// on the finished graph.
    pub fn certify(mut self, path: impl Into<PathBuf>) -> Self {
        self.certify = Some(path.into());
        self
    }

    /// Registers a named verdict predicate — e.g. `"safety"` = "no
    /// reachable state violates mutual exclusion" — to be evaluated on
    /// the finished [`StateGraph`] and pinned into the certificate, so a
    /// warm [`Explorer::replay_certificate`] can return it without
    /// re-running the analysis.
    pub fn verdict(
        mut self,
        name: impl Into<String>,
        pred: impl Fn(&StateGraph<M>) -> bool + 'static,
    ) -> Self {
        self.verdicts.push((name.into(), Box::new(pred)));
        self
    }

    /// The 128-bit structural key of this verification problem: the
    /// machine type and the crate version it was compiled under, the
    /// initial configuration (registers, machine states, per-process
    /// views), the exploration limits, the failure model, the symmetry
    /// mode and the registered verdict names — everything that can
    /// change the reachable set or a verdict drawn from it. Thread
    /// count and spilling are deliberately excluded: they change *how*
    /// the same graph is enumerated, never *what* it is.
    ///
    /// The machine's transition function is code, not data, so the key
    /// can only pin its closest stable proxies: the machine's
    /// [`type_name`](std::any::type_name) (two types whose initial
    /// fields encode identically still get distinct keys) and this
    /// crate's `CARGO_PKG_VERSION`. Editing transition logic *without*
    /// bumping the crate version is invisible to the key — after such
    /// an edit, invalidate persisted stores by hand
    /// (`check verify-cache --invalidate`,
    /// [`anonreg_cache::CacheStore::clear`], or point
    /// `ANONREG_CACHE_DIR` somewhere fresh).
    #[must_use]
    pub fn structural_hash(&self) -> Fp128 {
        let mut hasher = StructuralHasher::new("anonreg-cert-v2")
            .component("machine", std::any::type_name::<M>())
            .component("code_version", env!("CARGO_PKG_VERSION"))
            .raw("initial", &crate::canon::encode_plain(&self.initial));
        // The plain encoding omits views (constant within one run, so
        // they never distinguish states) — but across runs a changed
        // view changes reachability, so fold them in here.
        for i in 0..self.initial.process_count() {
            hasher = hasher.component("view", self.initial.view(i));
        }
        let mode = match self.encoder.mode() {
            SymmetryMode::Off => "off",
            SymmetryMode::Registers => "registers",
            SymmetryMode::Full => "full",
        };
        hasher = hasher
            .component("max_states", &(self.config.max_states as u64))
            .component("crashes", &self.config.crashes)
            .component("por", &self.config.por)
            .component("symmetry", mode);
        // A certificate answers exactly the verdict set it was asked;
        // registering, dropping or renaming a verdict is a different
        // question and must miss the cache.
        for (name, _) in &self.verdicts {
            hasher = hasher.component("verdict", name.as_str());
        }
        hasher.finish()
    }

    /// Runs the exploration and returns the complete reachable
    /// [`StateGraph`].
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::StateLimitExceeded`] if the reachable
    /// state space is larger than the configured `max_states`. Counters
    /// emitted up to that point are still in the probe, so a budget-blown
    /// exploration is still measurable. With [`Explorer::certify`],
    /// failures while writing the certificate surface as
    /// [`ExploreError::Certificate`].
    pub fn run(mut self) -> Result<StateGraph<M>, ExploreError> {
        let threads = self.validate()?;
        let emit = self
            .certify
            .take()
            .map(|path| (path, self.structural_hash()));
        let verdicts = std::mem::take(&mut self.verdicts);
        let encoder = self.encoder;
        let (graph, _) = par::run_impl(
            self.initial,
            &self.config,
            self.probe,
            threads,
            &encoder,
            self.profiler.as_deref(),
            true,
        )?;
        let graph = graph.expect("graph mode materialises a graph");
        if let Some((path, structural)) = emit {
            cert::write_graph(&graph, &encoder, structural, &verdicts, &path).map_err(|e| {
                ExploreError::Certificate {
                    message: e.to_string(),
                }
            })?;
        }
        Ok(graph)
    }

    /// Re-validates the certificate at `path` against this explorer's
    /// configuration **without exploring**: no frontier, no dedup table —
    /// one streaming membership/closure pass over the recorded graph
    /// (see [`anonreg_cache::replay`]), in memory bounded by two state
    /// codes. On success the probe receives one `cache_hit` count and
    /// the replay's wall-clock nanoseconds under `cache_replay_time`.
    ///
    /// # Errors
    ///
    /// [`anonreg_cache::CertError::Stale`] when the certificate pins a
    /// different structural key than [`Explorer::structural_hash`] — the
    /// machines, limits, symmetry mode or verdict set changed since it
    /// was written — [`anonreg_cache::CertError::VerdictMismatch`] when
    /// an intact certificate with the right key records a different
    /// verdict set than the one registered here (possible only through
    /// a key collision or a tampered store, since the key covers the
    /// verdict names), and the other [`anonreg_cache::CertError`]
    /// variants for damaged or unreadable files.
    pub fn replay_certificate(
        mut self,
        path: &std::path::Path,
    ) -> Result<cert::ReplayReport, anonreg_cache::CertError> {
        let expected = self.structural_hash();
        self.initial.clear_trace();
        let initial_code = self.encoder.encode(&self.initial).0;
        let start = Instant::now();
        let summary = anonreg_cache::replay(path, expected, &initial_code)?;
        if !summary
            .verdicts
            .iter()
            .map(|(name, _)| name.as_str())
            .eq(self.verdicts.iter().map(|(name, _)| name.as_str()))
        {
            return Err(anonreg_cache::CertError::VerdictMismatch {
                recorded: summary.verdicts.into_iter().map(|(name, _)| name).collect(),
                registered: self.verdicts.iter().map(|(name, _)| name.clone()).collect(),
            });
        }
        let elapsed = start.elapsed();
        if P::ENABLED {
            self.probe.counter(Metric::CacheHit, 0, 1);
            self.probe
                .counter(Metric::CacheReplayTime, 0, elapsed.as_nanos() as u64);
        }
        Ok(cert::ReplayReport {
            states: summary.states,
            edges: summary.edges,
            verdicts: summary.verdicts,
            elapsed,
        })
    }

    /// Runs the exploration for its **counts only** — states, edges,
    /// maximum depth, dedup hits — without materialising a
    /// [`StateGraph`].
    ///
    /// Expanded configurations are dropped as soon as their successors
    /// are interned, so memory scales with the frontier plus the dedup
    /// table (plus nothing at all for codes when
    /// [`spill`](Explorer::spill) is on), not with the full graph. This
    /// is the mode the E19 scale experiment runs in.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Explorer::run`].
    pub fn run_stats(self) -> Result<ExploreStats, ExploreError> {
        let threads = self.validate()?;
        let (_, stats) = par::run_impl(
            self.initial,
            &self.config,
            self.probe,
            threads,
            &self.encoder,
            self.profiler.as_deref(),
            false,
        )?;
        Ok(stats)
    }

    /// Shared run-time validation; returns the resolved thread count.
    fn validate(&self) -> Result<usize, ExploreError> {
        if self.config.por && self.config.crashes {
            return Err(ExploreError::PorWithCrashes);
        }
        if self.config.por && self.encoder.mode() == SymmetryMode::Full {
            return Err(ExploreError::PorWithFullSymmetry);
        }
        Ok(match self.config.parallelism {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            t => t,
        })
    }
}

/// The counts of an exploration run in [`Explorer::run_stats`] mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states interned.
    pub states: u64,
    /// Transitions taken (after any partial-order pruning).
    pub edges: u64,
    /// Dedup hits (edges whose target was already interned).
    pub dedup: u64,
    /// Maximum discovery depth.
    pub max_depth: u32,
}

/// How often each worker samples its frontier/depth gauges, in
/// states it expanded. Sampling (rather than reporting every state) keeps
/// the gauges cheap on million-state runs; the final values are always
/// reported exactly.
const GAUGE_SAMPLE_EVERY: usize = 1024;

/// One computed successor of a state, before interning.
struct Successor<M: Machine> {
    proc: usize,
    crash: bool,
    sim: Simulation<M>,
    event: Option<M::Event>,
    /// The step was a register-free local step (event announcement or
    /// halt) — membership in the state's ample set.
    local: bool,
}

/// Expands `state` into `out` (cleared first): one successor per live
/// process, plus one crash successor each under the crash model. With
/// `por`, and when at least one process is poised at a register-free
/// local step, only those processes' successors are kept (the ample
/// set — see [`Explorer::por`] for why this is sound and why the ample
/// set is *all* such processes, never fewer). Returns how many
/// successors were pruned.
fn expand_into<M: Machine + Eq>(
    state: &Simulation<M>,
    crashes: bool,
    por: bool,
    out: &mut Vec<Successor<M>>,
) -> u64 {
    out.clear();
    for proc in 0..state.process_count() {
        if state.is_halted(proc) {
            continue;
        }
        let mut sim = state.clone();
        let (outcome, event) = sim.step_quiet(proc).expect("slot is valid and not halted");
        let local = matches!(outcome, StepOutcome::Event | StepOutcome::Halted);
        out.push(Successor {
            proc,
            crash: false,
            sim,
            event,
            local,
        });
        if crashes {
            let mut sim = state.clone();
            sim.crash_quiet(proc).expect("slot is valid");
            out.push(Successor {
                proc,
                crash: true,
                sim,
                event: None,
                local: false,
            });
        }
    }
    if por && out.iter().any(|s| s.local) {
        let before = out.len();
        out.retain(|s| s.local);
        (before - out.len()) as u64
    } else {
        0
    }
}

/// POR counters for one worker, reported only when the reduction
/// actually fired so unreduced runs keep their probe output unchanged.
#[derive(Default)]
pub(crate) struct PorTally {
    /// States at which the ample set was a proper subset.
    pub(crate) ample: u64,
    /// Successors pruned across those states.
    pub(crate) pruned: u64,
}

impl PorTally {
    pub(crate) fn absorb(&mut self, pruned: u64) {
        if pruned > 0 {
            self.ample += 1;
            self.pruned += pruned;
        }
    }

    pub(crate) fn report<P: Probe>(&self, probe: &P, key: u64) {
        if self.ample > 0 {
            probe.counter(Metric::PorAmple, key, self.ample);
            probe.counter(Metric::PorPruned, key, self.pruned);
        }
    }
}

/// Hands a finished worker's phase timer to the profiler, if both
/// are attached.
pub(crate) fn record_timer(profiler: Option<&Profiler>, timer: Option<anonreg_obs::PhaseTimer>) {
    if let (Some(p), Some(t)) = (profiler, timer) {
        p.record(t.finish());
    }
}

/// Running totals already emitted as incremental `explore_*` counter
/// flushes. Workers flush on the gauge sampling cadence so a live
/// stream sees progress mid-run; the final report emits only the
/// remainder, keeping every counter total exact.
#[derive(Default)]
pub(crate) struct FlushedCounters {
    states: u64,
    edges: u64,
    dedup: u64,
}

impl FlushedCounters {
    /// Emits the not-yet-flushed part of each running total.
    fn flush<P: Probe>(&mut self, probe: &P, dedup_key: u64, states: u64, edges: u64, dedup: u64) {
        if states > self.states {
            probe.counter(Metric::ExploreStates, 0, states - self.states);
            self.states = states;
        }
        if edges > self.edges {
            probe.counter(Metric::ExploreEdges, 0, edges - self.edges);
            self.edges = edges;
        }
        if dedup > self.dedup {
            probe.counter(Metric::ExploreDedup, dedup_key, dedup - self.dedup);
            self.dedup = dedup;
        }
    }

    /// Final emission: like [`FlushedCounters::flush`] but unconditional,
    /// so each counter has an entry even when its total is zero.
    pub(crate) fn finish<P: Probe>(
        &mut self,
        probe: &P,
        dedup_key: u64,
        states: u64,
        edges: u64,
        dedup: u64,
    ) {
        probe.counter(Metric::ExploreStates, 0, states.saturating_sub(self.states));
        probe.counter(Metric::ExploreEdges, 0, edges.saturating_sub(self.edges));
        probe.counter(
            Metric::ExploreDedup,
            dedup_key,
            dedup.saturating_sub(self.dedup),
        );
        self.states = states.max(self.states);
        self.edges = edges.max(self.edges);
        self.dedup = dedup.max(self.dedup);
    }
}

/// Symmetry-reduction counters for one worker (`key` is the worker
/// index). Emitted
/// only when canonicalization actually did something, so plain
/// explorations keep their probe output unchanged. `skipped` counts the
/// encodes that took the trivial-orbit fast path instead of a canonical
/// search — proof in the metrics that the short-circuit fired.
pub(crate) fn report_symmetry<P: Probe>(probe: &P, key: u64, hits: u64, nanos: u64, skipped: u64) {
    if hits > 0 {
        probe.counter(Metric::SymmetryHits, key, hits);
    }
    if nanos > 0 {
        probe.counter(Metric::CanonTime, key, nanos);
    }
    if skipped > 0 {
        probe.counter(Metric::CanonSkipped, key, skipped);
    }
}

impl<M: Machine> StateGraph<M> {
    /// The number of reachable states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The total number of transitions.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// The configuration of state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn state(&self, id: usize) -> &Simulation<M> {
        &self.states[id]
    }

    /// Iterates over all states with their ids.
    pub fn states(&self) -> impl Iterator<Item = (usize, &Simulation<M>)> {
        self.states.iter().enumerate()
    }

    /// The outgoing transitions of state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn edges(&self, id: usize) -> &[Edge<M::Event>] {
        &self.edges[id]
    }

    /// Finds a reachable state satisfying `pred` (a safety-violation
    /// search). States are scanned in discovery (BFS/DFS mix) order, so the
    /// returned state is reachable by the schedule from
    /// [`schedule_to`](StateGraph::schedule_to).
    pub fn find_state<F>(&self, mut pred: F) -> Option<usize>
    where
        F: FnMut(&Simulation<M>) -> bool,
    {
        (0..self.states.len()).find(|&id| pred(&self.states[id]))
    }

    /// Reconstructs the adversary schedule (sequence of process slots, one
    /// per atomic step) that drives the initial state to state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, or if the discovery path contains a
    /// crash transition (crash-enabled graphs need
    /// [`actions_to`](StateGraph::actions_to)).
    #[must_use]
    pub fn schedule_to(&self, id: usize) -> Vec<usize> {
        self.actions_to(id)
            .into_iter()
            .map(|action| match action {
                ScheduleAction::Step(proc) => proc,
                ScheduleAction::Crash(_) => {
                    panic!("path contains a crash; use actions_to for crash-enabled graphs")
                }
            })
            .collect()
    }

    /// Reconstructs the adversary actions (steps and crashes) that drive
    /// the initial state to state `id`. Replay with
    /// [`Simulation::step`]/[`Simulation::crash`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn actions_to(&self, id: usize) -> Vec<ScheduleAction> {
        let mut actions = Vec::new();
        let mut cursor = id;
        while let Some((parent, proc, crash)) = self.parents[cursor] {
            actions.push(if crash {
                ScheduleAction::Crash(proc)
            } else {
                ScheduleAction::Step(proc)
            });
            cursor = parent;
        }
        actions.reverse();
        actions
    }

    /// Computes the strongly connected components that contain at least one
    /// internal edge (i.e. can be stayed in forever), as lists of state ids.
    ///
    /// The result is canonical: each component's ids are sorted ascending
    /// and the components are ordered by their smallest id. Tarjan's
    /// emission order depends on edge order, which the parallel explorer
    /// does not reproduce run-to-run — canonicalizing here makes every
    /// SCC-based analysis independent of discovery order.
    #[must_use]
    pub fn nontrivial_sccs(&self) -> Vec<Vec<usize>> {
        let sccs = tarjan(self.states.len(), &self.edges);
        canonicalize_sccs(
            sccs.into_iter()
                .filter(|scc| {
                    scc.len() > 1 || self.edges[scc[0]].iter().any(|e| e.target == scc[0])
                })
                .collect(),
        )
    }

    /// Searches for a **fair livelock**: a strongly connected component in
    /// which
    ///
    /// 1. every live (non-halted) process has at least one transition that
    ///    stays inside the component — so a schedule confined to it can give
    ///    every process infinitely many steps (fairness), and
    /// 2. no transition inside the component emits an event accepted by
    ///    `is_progress`, and
    /// 3. some state in the component has a process for which `stuck` holds
    ///    (e.g. "is in its entry section").
    ///
    /// Such a component is a complete violation of deadlock freedom: an
    /// infinite fair schedule under which a process remains stuck forever.
    /// Returns the component's state ids, or `None` if the property holds.
    pub fn find_fair_livelock<FS, FP>(
        &self,
        mut stuck: FS,
        mut is_progress: FP,
    ) -> Option<Vec<usize>>
    where
        FS: FnMut(&M) -> bool,
        FP: FnMut(&M::Event) -> bool,
    {
        let mut in_scc_bits = vec![false; self.states.len()];
        for scc in self.nontrivial_sccs() {
            for &id in &scc {
                in_scc_bits[id] = true;
            }
            let qualifies = {
                let in_scc = |target: usize| in_scc_bits[target];

                // (2) No progress inside the component.
                let progress_inside = scc.iter().any(|&id| {
                    self.edges[id]
                        .iter()
                        .any(|e| in_scc(e.target) && e.events.iter().any(&mut is_progress))
                });

                // (1) Every live process can keep moving inside the
                // component. Halting is permanent, so the live set is
                // constant across an SCC; take it from the first state.
                let probe = &self.states[scc[0]];
                let live: Vec<usize> = (0..probe.process_count())
                    .filter(|&p| !probe.is_halted(p))
                    .collect();
                let all_can_move = !live.is_empty()
                    && live.iter().all(|&p| {
                        scc.iter().any(|&id| {
                            self.edges[id]
                                .iter()
                                .any(|e| e.proc == p && in_scc(e.target))
                        })
                    });

                // (3) Someone is stuck.
                let mut someone_stuck = || {
                    scc.iter().any(|&id| {
                        (0..self.states[id].process_count()).any(|p| {
                            !self.states[id].is_halted(p) && stuck(self.states[id].machine(p))
                        })
                    })
                };

                !progress_inside && all_can_move && someone_stuck()
            };
            for &id in &scc {
                in_scc_bits[id] = false;
            }
            if qualifies {
                return Some(scc);
            }
        }
        None
    }

    /// Searches for **fair starvation** of process `victim`: a strongly
    /// connected component in which
    ///
    /// 1. every live process (the victim included) has a transition that
    ///    stays inside the component — a fair schedule exists,
    /// 2. no transition *by the victim* inside the component emits a
    ///    progress event, while
    /// 3. some transition *by another process* inside the component does —
    ///    the system as a whole keeps making progress, and
    /// 4. the victim satisfies `stuck` somewhere in the component.
    ///
    /// This is strictly weaker than a fair livelock: the algorithm may be
    /// perfectly deadlock-free (others enter again and again) while the
    /// victim starves. Deadlock-freedom permits this; starvation-freedom —
    /// which the paper's §8 lists as open for the memory-anonymous model —
    /// forbids it.
    ///
    /// Implementation note: the victim's progress edges are *deleted* from
    /// the graph first. Machines are deterministic, so the adversary cannot
    /// make a scheduled victim skip its progress step — but it can simply
    /// decline to schedule the victim in states where that step is next,
    /// which is exactly what the edge deletion models. A qualifying SCC of
    /// the remaining subgraph is then a fair infinite schedule in which the
    /// victim steps forever without ever progressing while others do.
    /// Returns the component's state ids.
    pub fn find_fair_starvation<FS, FP>(
        &self,
        victim: usize,
        mut stuck: FS,
        mut is_progress: FP,
    ) -> Option<Vec<usize>>
    where
        FS: FnMut(&M) -> bool,
        FP: FnMut(&M::Event) -> bool,
    {
        // The subgraph without the victim's progress edges.
        let filtered: Vec<Vec<Edge<M::Event>>> = self
            .edges
            .iter()
            .map(|out| {
                out.iter()
                    .filter(|e| !(e.proc == victim && e.events.iter().any(&mut is_progress)))
                    .cloned()
                    .collect()
            })
            .collect();
        let sccs = canonicalize_sccs(tarjan(self.states.len(), &filtered));
        let mut in_scc_bits = vec![false; self.states.len()];
        for scc in sccs {
            let has_internal_edge =
                scc.len() > 1 || filtered[scc[0]].iter().any(|e| e.target == scc[0]);
            if !has_internal_edge {
                continue;
            }
            for &id in &scc {
                in_scc_bits[id] = true;
            }
            let qualifies = {
                let in_scc = |target: usize| in_scc_bits[target];

                // Someone other than the victim keeps progressing.
                let others_progress = scc.iter().any(|&id| {
                    filtered[id].iter().any(|e| {
                        e.proc != victim
                            && in_scc(e.target)
                            && e.events.iter().any(&mut is_progress)
                    })
                });

                // Fairness: every live process — the victim included — can
                // keep moving inside the filtered component.
                let probe = &self.states[scc[0]];
                let victim_live = victim < probe.process_count() && !probe.is_halted(victim);
                let all_can_move = victim_live && {
                    let live: Vec<usize> = (0..probe.process_count())
                        .filter(|&p| !probe.is_halted(p))
                        .collect();
                    live.iter().all(|&p| {
                        scc.iter()
                            .any(|&id| filtered[id].iter().any(|e| e.proc == p && in_scc(e.target)))
                    })
                };

                // The victim is actually stuck (e.g. in its entry section)
                // somewhere in the component.
                let mut victim_stuck = || {
                    victim < probe.process_count()
                        && scc.iter().any(|&id| stuck(self.states[id].machine(victim)))
                };

                others_progress && all_can_move && victim_stuck()
            };
            for &id in &scc {
                in_scc_bits[id] = false;
            }
            if qualifies {
                return Some(scc);
            }
        }
        None
    }
}

impl<M: Machine> fmt::Debug for StateGraph<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateGraph")
            .field("states", &self.states.len())
            .field("edges", &self.edge_count())
            .finish()
    }
}

/// Canonicalizes a list of SCCs: ids inside each component sorted
/// ascending, components ordered by smallest id. Tarjan emits components
/// in reverse topological order, which depends on edge order and hence on
/// discovery order; analyses that scan components must not.
fn canonicalize_sccs(mut sccs: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for scc in &mut sccs {
        scc.sort_unstable();
    }
    sccs.sort_unstable_by_key(|scc| scc.first().copied());
    sccs
}

/// Iterative Tarjan SCC over the edge lists. Returns components in reverse
/// topological order.
fn tarjan<E>(n: usize, edges: &[Vec<Edge<E>>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeData {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let mut data = vec![
        NodeData {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut counter = 0usize;
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS stack: (node, next edge index to examine).
    for root in 0..n {
        if data[root].visited {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ei)) = dfs.last_mut() {
            if *ei == 0 && !data[v].visited {
                data[v].visited = true;
                data[v].index = counter;
                data[v].lowlink = counter;
                counter += 1;
                data[v].on_stack = true;
                stack.push(v);
            }
            if let Some(edge) = edges[v].get(*ei) {
                *ei += 1;
                let w = edge.target;
                if !data[w].visited {
                    dfs.push((w, 0));
                } else if data[w].on_stack {
                    data[v].lowlink = data[v].lowlink.min(data[w].index);
                }
            } else {
                // Done with v.
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    let low = data[v].lowlink;
                    data[parent].lowlink = data[parent].lowlink.min(low);
                }
                if data[v].lowlink == data[v].index {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        data[w].on_stack = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use anonreg_model::{Pid, Step, View};
    use anonreg_obs::Span;

    /// Two-phase toy: writes its pid, reads, halts. Tiny state space.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Toy {
        pid: Pid,
        phase: u8,
    }

    impl Machine for Toy {
        type Value = u64;
        type Event = &'static str;

        fn pid(&self) -> Pid {
            self.pid
        }

        fn register_count(&self) -> usize {
            1
        }

        fn resume(&mut self, _read: Option<u64>) -> Step<u64, &'static str> {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Step::Write(0, self.pid.get())
                }
                1 => {
                    self.phase = 2;
                    Step::Event("wrote")
                }
                _ => Step::Halt,
            }
        }
    }

    impl PidMap for Toy {
        fn map_pids(&self, f: &mut dyn FnMut(Pid) -> Pid) -> Self {
            Toy {
                pid: f(self.pid),
                phase: self.phase,
            }
        }
    }

    /// Spins forever re-reading register 0 (a guaranteed livelock).
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Spinner {
        pid: Pid,
    }

    impl Machine for Spinner {
        type Value = u64;
        type Event = &'static str;

        fn pid(&self) -> Pid {
            self.pid
        }

        fn register_count(&self) -> usize {
            1
        }

        fn resume(&mut self, _read: Option<u64>) -> Step<u64, &'static str> {
            Step::Read(0)
        }
    }

    impl PidMap for Spinner {
        fn map_pids(&self, f: &mut dyn FnMut(Pid) -> Pid) -> Self {
            Spinner { pid: f(self.pid) }
        }
    }

    fn pid(n: u64) -> Pid {
        Pid::new(n).unwrap()
    }

    #[test]
    fn explores_tiny_interleaving_space() {
        let sim = Simulation::builder()
            .process(
                Toy {
                    pid: pid(1),
                    phase: 0,
                },
                View::identity(1),
            )
            .process(
                Toy {
                    pid: pid(2),
                    phase: 0,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        // Each process contributes a write step and an event+halt step;
        // states are (register value, phase of each process) combinations.
        assert!(graph.state_count() >= 4);
        assert!(graph.state_count() <= 3 * 3 * 3);
        // Terminal states exist where everyone halted.
        let terminal = graph.find_state(super::super::simulation::Simulation::all_halted);
        assert!(terminal.is_some());
    }

    #[test]
    fn schedule_to_replays() {
        let build = || {
            Simulation::builder()
                .process(
                    Toy {
                        pid: pid(1),
                        phase: 0,
                    },
                    View::identity(1),
                )
                .process(
                    Toy {
                        pid: pid(2),
                        phase: 0,
                    },
                    View::identity(1),
                )
                .build()
                .unwrap()
        };
        let graph = Explorer::new(build()).run().unwrap();
        // Find a state where register 0 holds 1 and both halted: process 2
        // wrote first, process 1 overwrote.
        let id = graph
            .find_state(|s| s.all_halted() && s.registers()[0] == 1)
            .expect("such a terminal state exists");
        let schedule = graph.schedule_to(id);
        // Replay on a fresh simulation.
        let mut sim = build();
        for &p in &schedule {
            sim.step(p).unwrap();
        }
        assert!(sim.same_configuration(graph.state(id)));
    }

    #[test]
    fn state_limit_is_enforced() {
        let sim = Simulation::builder()
            .process(
                Toy {
                    pid: pid(1),
                    phase: 0,
                },
                View::identity(1),
            )
            .process(
                Toy {
                    pid: pid(2),
                    phase: 0,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let err = Explorer::new(sim).max_states(2).run().unwrap_err();
        assert_eq!(err, ExploreError::StateLimitExceeded { limit: 2 });
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn spinner_is_a_fair_livelock() {
        let sim = Simulation::builder()
            .process(Spinner { pid: pid(1) }, View::identity(1))
            .process(Spinner { pid: pid(2) }, View::identity(1))
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        let livelock = graph.find_fair_livelock(|_| true, |_| false);
        assert!(livelock.is_some());
    }

    #[test]
    fn halting_machines_have_no_livelock() {
        let sim = Simulation::builder()
            .process(
                Toy {
                    pid: pid(1),
                    phase: 0,
                },
                View::identity(1),
            )
            .process(
                Toy {
                    pid: pid(2),
                    phase: 0,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        assert!(graph.nontrivial_sccs().is_empty());
        assert!(graph.find_fair_livelock(|_| true, |_| false).is_none());
    }

    #[test]
    fn progress_inside_scc_is_not_a_livelock() {
        /// Cycles forever but emits a progress event every lap.
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct Lapper {
            pid: Pid,
            lap: bool,
        }
        impl Machine for Lapper {
            type Value = u64;
            type Event = &'static str;
            fn pid(&self) -> Pid {
                self.pid
            }
            fn register_count(&self) -> usize {
                1
            }
            fn resume(&mut self, _read: Option<u64>) -> Step<u64, &'static str> {
                self.lap = !self.lap;
                if self.lap {
                    Step::Read(0)
                } else {
                    Step::Event("progress")
                }
            }
        }
        let sim = Simulation::builder()
            .process(
                Lapper {
                    pid: pid(1),
                    lap: false,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        assert!(!graph.nontrivial_sccs().is_empty());
        let livelock = graph.find_fair_livelock(|_| true, |e| *e == "progress");
        assert!(livelock.is_none());
    }

    #[test]
    fn probed_explore_reports_exact_counts() {
        use anonreg_obs::MemProbe;
        let build = || {
            Simulation::builder()
                .process(
                    Toy {
                        pid: pid(1),
                        phase: 0,
                    },
                    View::identity(1),
                )
                .process(
                    Toy {
                        pid: pid(2),
                        phase: 0,
                    },
                    View::identity(1),
                )
                .build()
                .unwrap()
        };
        let probe = MemProbe::new();
        let graph = Explorer::new(build()).probe(&probe).run().unwrap();
        let snap = probe.into_snapshot();
        assert_eq!(
            snap.counter_total(Metric::ExploreStates),
            graph.state_count() as u64
        );
        assert_eq!(
            snap.counter_total(Metric::ExploreEdges),
            graph.edge_count() as u64
        );
        // Every edge either discovers a state or hits the dedup table
        // (the initial state is discovered without an edge).
        assert_eq!(
            snap.counter_total(Metric::ExploreDedup),
            graph.edge_count() as u64 - (graph.state_count() as u64 - 1)
        );
        // Frontier drained; depth bounded by the longest acyclic path.
        let frontier = snap.gauge_stat(Metric::ExploreFrontier).unwrap();
        assert_eq!(frontier.last, 0);
        let depth = snap.gauge_stat(Metric::ExploreDepth).unwrap();
        assert!(depth.max >= 1 && depth.max < graph.state_count() as u64);
        // One explore span, length = states, around the one worker's
        // span, length = states it expanded (all of them).
        assert_eq!(snap.spans.len(), 2);
        for span in &snap.spans {
            assert_eq!(span.length, graph.state_count() as u64, "{span:?}");
        }
        assert_eq!(
            snap.spans
                .iter()
                .filter(|s| s.span == Span::ExploreWorker)
                .count(),
            1
        );
        // And the probed graph is identical to the unprobed one.
        let plain = Explorer::new(build()).run().unwrap();
        assert_eq!(plain.state_count(), graph.state_count());
        assert_eq!(plain.edge_count(), graph.edge_count());
    }

    #[test]
    fn probed_explore_reports_partial_counts_on_limit() {
        use anonreg_obs::MemProbe;
        let sim = Simulation::builder()
            .process(
                Toy {
                    pid: pid(1),
                    phase: 0,
                },
                View::identity(1),
            )
            .process(
                Toy {
                    pid: pid(2),
                    phase: 0,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let probe = MemProbe::new();
        let err = Explorer::new(sim)
            .max_states(3)
            .probe(&probe)
            .run()
            .unwrap_err();
        assert_eq!(err, ExploreError::StateLimitExceeded { limit: 3 });
        let snap = probe.into_snapshot();
        assert_eq!(snap.counter_total(Metric::ExploreStates), 3);
        // The explore span and the worker's, both closed on the error path.
        assert_eq!(snap.spans.len(), 2);
    }

    #[test]
    fn edge_events_are_captured() {
        let sim = Simulation::builder()
            .process(
                Toy {
                    pid: pid(1),
                    phase: 0,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        let has_event_edge = (0..graph.state_count())
            .any(|id| graph.edges(id).iter().any(|e| e.events.contains(&"wrote")));
        assert!(has_event_edge);
    }

    /// Builds the two-Toy simulation used by the parallel tests.
    fn two_toys() -> Simulation<Toy> {
        Simulation::builder()
            .process(
                Toy {
                    pid: pid(1),
                    phase: 0,
                },
                View::identity(1),
            )
            .process(
                Toy {
                    pid: pid(2),
                    phase: 0,
                },
                View::identity(1),
            )
            .build()
            .unwrap()
    }

    /// The reference explorer's graph of `sim` (no symmetry reduction).
    fn reference_of<M>(sim: &Simulation<M>, crashes: bool, por: bool) -> reference::RefGraph
    where
        M: Machine + Eq + Hash + PidMap,
        M::Value: PidMap,
    {
        reference::explore(sim, crashes, por, SymmetryMode::Off)
    }

    #[test]
    fn graph_matches_the_reference_at_every_worker_count() {
        let expected = reference_of(&two_toys(), false, false);
        for threads in [1, 2, 4] {
            let graph = Explorer::new(two_toys())
                .parallelism(threads)
                .run()
                .unwrap();
            reference::assert_matches(&format!("{threads} workers"), &graph, &expected);
        }
    }

    #[test]
    fn parallel_explorer_handles_crashes() {
        let parallel = Explorer::new(two_toys())
            .crashes(true)
            .parallelism(3)
            .run()
            .unwrap();
        reference::assert_matches(
            "crashes",
            &parallel,
            &reference_of(&two_toys(), true, false),
        );
        // Crash edges survive the multi-worker path.
        let crash_edges = (0..parallel.state_count())
            .flat_map(|id| parallel.edges(id))
            .filter(|e| e.crash)
            .count();
        assert!(crash_edges > 0);
    }

    #[test]
    fn parallel_state_limit_is_enforced() {
        let err = Explorer::new(two_toys())
            .max_states(2)
            .parallelism(4)
            .run()
            .unwrap_err();
        assert_eq!(err, ExploreError::StateLimitExceeded { limit: 2 });
    }

    #[test]
    fn parallelism_zero_means_auto() {
        let graph = Explorer::new(two_toys()).parallelism(0).run().unwrap();
        reference::assert_matches("auto", &graph, &reference_of(&two_toys(), false, false));
    }

    #[test]
    fn parallel_probed_reports_exact_counts() {
        use anonreg_obs::MemProbe;
        let probe = MemProbe::new();
        let threads = 4;
        let graph = Explorer::new(two_toys())
            .parallelism(threads)
            .probe(&probe)
            .run()
            .unwrap();
        let snap = probe.into_snapshot();
        assert_eq!(
            snap.counter_total(Metric::ExploreStates),
            graph.state_count() as u64
        );
        assert_eq!(
            snap.counter_total(Metric::ExploreEdges),
            graph.edge_count() as u64
        );
        // Every edge either discovers a state or hits the (sharded) dedup
        // table; summing across shard keys restores the global invariant.
        assert_eq!(
            snap.counter_total(Metric::ExploreDedup),
            graph.edge_count() as u64 - (graph.state_count() as u64 - 1)
        );
        // One explore span plus one per worker; the workers' lengths (states
        // expanded) sum to the state count.
        assert_eq!(snap.spans.len(), 1 + threads);
        let expanded: u64 = snap
            .spans
            .iter()
            .filter(|s| s.span == Span::ExploreWorker)
            .map(|s| s.length)
            .sum();
        assert_eq!(expanded, graph.state_count() as u64);
    }

    #[test]
    fn parallel_livelock_detection_matches_the_reference() {
        let build = || {
            Simulation::builder()
                .process(Spinner { pid: pid(1) }, View::identity(1))
                .process(Spinner { pid: pid(2) }, View::identity(1))
                .build()
                .unwrap()
        };
        let parallel = Explorer::new(build()).parallelism(4).run().unwrap();
        reference::assert_matches("spinners", &parallel, &reference_of(&build(), false, false));
        assert!(parallel.find_fair_livelock(|_| true, |_| false).is_some());
    }

    #[test]
    fn nontrivial_sccs_are_canonical() {
        let sim = Simulation::builder()
            .process(Spinner { pid: pid(1) }, View::identity(1))
            .process(Spinner { pid: pid(2) }, View::identity(1))
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        let sccs = graph.nontrivial_sccs();
        assert!(!sccs.is_empty());
        for scc in &sccs {
            assert!(scc.windows(2).all(|w| w[0] < w[1]), "ids sorted ascending");
        }
        assert!(
            sccs.windows(2).all(|w| w[0][0] < w[1][0]),
            "components ordered by smallest id"
        );
    }

    /// `step_quiet` must be `step` minus the trace: identical machine,
    /// register and halt evolution under a lockstep schedule.
    #[test]
    fn step_quiet_matches_step_in_lockstep() {
        let mut traced = two_toys();
        let mut quiet = two_toys();
        for round in 0..6 {
            for p in 0..2 {
                let r1 = traced.step(p);
                let r2 = quiet.step_quiet(p);
                match (r1, r2) {
                    (Ok(o1), Ok((o2, _event))) => assert_eq!(o1, o2, "round {round} proc {p}"),
                    (Err(e1), Err(e2)) => assert_eq!(e1, e2, "round {round} proc {p}"),
                    (a, b) => panic!("divergence at round {round} proc {p}: {a:?} vs {b:?}"),
                }
            }
            traced.clear_trace();
            assert!(
                traced.same_configuration(&quiet),
                "configurations diverged at round {round}"
            );
        }
        assert!(quiet.all_halted());
    }

    #[test]
    fn por_with_crashes_is_rejected() {
        let err = Explorer::new(two_toys())
            .por(true)
            .crashes(true)
            .run()
            .unwrap_err();
        assert_eq!(err, ExploreError::PorWithCrashes);
        assert!(!err.to_string().is_empty());
        let err = Explorer::new(two_toys())
            .por(true)
            .crashes(true)
            .run_stats()
            .unwrap_err();
        assert_eq!(err, ExploreError::PorWithCrashes);
    }

    /// POR prunes interleavings of the Toys' local (event/halt) steps but
    /// must preserve reachability of the terminal configurations, and
    /// every worker count must agree with the reference on the reduced
    /// graph exactly.
    #[test]
    fn por_reduces_and_matches_the_reference() {
        let full = Explorer::new(two_toys()).run().unwrap();
        let reduced = Explorer::new(two_toys()).por(true).run().unwrap();
        assert!(reduced.state_count() < full.state_count(), "nothing pruned");
        assert!(reduced.edge_count() < full.edge_count());
        // Both terminal register outcomes stay reachable.
        for winner in [1u64, 2] {
            assert!(
                reduced
                    .find_state(|s| s.all_halted() && s.registers()[0] == winner)
                    .is_some(),
                "terminal state with register {winner} lost by the reduction"
            );
        }
        let expected = reference_of(&two_toys(), false, true);
        reference::assert_matches("por, 1 worker", &reduced, &expected);
        for threads in [2, 4] {
            let parallel = Explorer::new(two_toys())
                .por(true)
                .parallelism(threads)
                .run()
                .unwrap();
            reference::assert_matches(&format!("por, {threads} workers"), &parallel, &expected);
        }
    }

    #[test]
    fn por_counters_are_reported() {
        use anonreg_obs::MemProbe;
        let probe = MemProbe::new();
        let reduced = Explorer::new(two_toys())
            .por(true)
            .probe(&probe)
            .run()
            .unwrap();
        let snap = probe.into_snapshot();
        let ample = snap.counter_total(Metric::PorAmple);
        let pruned = snap.counter_total(Metric::PorPruned);
        assert!(ample > 0, "no ample sets fired on the Toy space");
        assert!(pruned > 0, "ample sets fired but nothing was pruned");
        // An ample set fires at most once per expanded state.
        assert!(ample <= reduced.state_count() as u64);
    }

    /// `run_stats` must count exactly what `run` materialises, on both
    /// engines, with and without POR.
    #[test]
    fn run_stats_matches_graph_counts() {
        for por in [false, true] {
            let graph = Explorer::new(two_toys()).por(por).run().unwrap();
            for threads in [1, 3] {
                let stats = Explorer::new(two_toys())
                    .por(por)
                    .parallelism(threads)
                    .run_stats()
                    .unwrap();
                assert_eq!(stats.states as usize, graph.state_count(), "por={por}");
                assert_eq!(stats.edges as usize, graph.edge_count(), "por={por}");
                assert_eq!(
                    stats.dedup as usize,
                    graph.edge_count() - (graph.state_count() - 1),
                    "por={por}"
                );
                assert!(stats.max_depth > 0);
            }
        }
    }

    /// Spilling codes to disk must not change the graph, at any worker
    /// count.
    #[test]
    fn spilled_graph_matches_the_reference() {
        let expected = reference_of(&two_toys(), false, false);
        for threads in [1, 2, 4] {
            let spilled = Explorer::new(two_toys())
                .spill(true)
                .parallelism(threads)
                .run()
                .unwrap();
            reference::assert_matches(&format!("spill, {threads} workers"), &spilled, &expected);
        }
        for threads in [1, 2] {
            let stats = Explorer::new(two_toys())
                .spill(true)
                .parallelism(threads)
                .run_stats()
                .unwrap();
            assert_eq!(stats.states as usize, expected.codes.len());
            assert_eq!(stats.edges as usize, expected.edge_count());
        }
    }

    /// One worker spills too: the codes go to disk, not to the arena.
    #[test]
    fn one_worker_spills() {
        use anonreg_obs::MemProbe;
        let probe = MemProbe::new();
        let graph = Explorer::new(two_toys())
            .spill(true)
            .probe(&probe)
            .run()
            .unwrap();
        let snap = probe.into_snapshot();
        assert!(
            snap.counter_total(Metric::SpillBytes) > 0,
            "nothing spilled"
        );
        assert_eq!(
            snap.counter_total(Metric::ExploreStates),
            graph.state_count() as u64
        );
    }

    /// Blows up mid-exploration: halves a fuse per write, panics at zero.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Grenade {
        pid: Pid,
        fuse: u8,
    }

    impl Machine for Grenade {
        type Value = u64;
        type Event = &'static str;

        fn pid(&self) -> Pid {
            self.pid
        }

        fn register_count(&self) -> usize {
            1
        }

        fn resume(&mut self, _read: Option<u64>) -> Step<u64, &'static str> {
            assert!(self.fuse > 0, "grenade went off (injected worker panic)");
            self.fuse -= 1;
            Step::Write(0, u64::from(self.fuse))
        }
    }

    /// A worker that panics mid-expansion must not hang the run: the
    /// drop guard releases its pending slot and trips the abort flag, and
    /// the main thread reports the panic as an error verdict.
    #[test]
    fn worker_panic_is_reported_not_hung() {
        let build = || {
            Simulation::builder()
                .process(
                    Grenade {
                        pid: pid(1),
                        fuse: 3,
                    },
                    View::identity(1),
                )
                .process(
                    Grenade {
                        pid: pid(2),
                        fuse: 3,
                    },
                    View::identity(1),
                )
                .build()
                .unwrap()
        };
        // One worker panics on the calling thread, more on spawned ones.
        for threads in [1, 2, 4] {
            let err = Explorer::new(build())
                .parallelism(threads)
                .run()
                .unwrap_err();
            assert_eq!(err, ExploreError::WorkerPanicked, "{threads} threads");
            assert!(!err.to_string().is_empty());
            let err = Explorer::new(build())
                .parallelism(threads)
                .run_stats()
                .unwrap_err();
            assert_eq!(err, ExploreError::WorkerPanicked, "{threads} threads");
        }
    }

    /// Seeded cross-thread dedup races: many short-lived explorations of
    /// the same space, varying thread counts, must all agree with the
    /// reference graph (exercises the claim-CAS/publish/spin protocol
    /// under real interleavings).
    #[test]
    fn seeded_parallel_runs_agree_with_the_reference() {
        let expected = reference_of(&two_toys(), false, false);
        for seed in 0..8u32 {
            let threads = 2 + (seed as usize % 3);
            let parallel = Explorer::new(two_toys())
                .parallelism(threads)
                .spill(seed % 2 == 1)
                .run()
                .unwrap();
            reference::assert_matches(&format!("seed {seed}"), &parallel, &expected);
        }
    }

    /// The batched fingerprint path (encode+hash `FP_BATCH` successors,
    /// then probe the table) must leave every count bit-identical to the
    /// one-worker run under seeded race variation — the batching
    /// reorders nothing, it only groups.
    #[test]
    fn batched_fingerprinting_counts_are_bit_identical() {
        let baseline = Explorer::new(two_toys()).run_stats().unwrap();
        let expected = reference_of(&two_toys(), false, false);
        assert_eq!(baseline.states as usize, expected.codes.len());
        assert_eq!(baseline.edges as usize, expected.edge_count());
        for seed in 0..8u32 {
            let threads = 2 + (seed as usize % 3);
            let stats = Explorer::new(two_toys())
                .parallelism(threads)
                .spill(seed % 2 == 1)
                .run_stats()
                .unwrap();
            assert_eq!(stats.states, baseline.states, "seed {seed}");
            assert_eq!(stats.edges, baseline.edges, "seed {seed}");
            assert_eq!(stats.dedup, baseline.dedup, "seed {seed}");
        }
    }

    #[test]
    fn por_with_full_symmetry_is_rejected() {
        let err = Explorer::new(two_toys())
            .por(true)
            .symmetry(SymmetryMode::Full)
            .run()
            .unwrap_err();
        assert_eq!(err, ExploreError::PorWithFullSymmetry);
        assert!(err.to_string().contains("SymmetryMode::Full"));
        assert!(err.to_string().contains("Registers"));
    }

    fn cert_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "anonreg-explore-cert-{}-{name}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Certify → replay round-trip: the replay's counts and verdicts
    /// match the explored graph, with zero exploration on the warm path.
    #[test]
    fn certificate_round_trips_counts_and_verdicts() {
        let path = cert_dir("roundtrip").join("toys.cert");
        let graph = Explorer::new(two_toys())
            .certify(&path)
            .verdict("terminates", |g: &StateGraph<Toy>| {
                g.find_state(Simulation::all_halted).is_some()
            })
            .verdict("livelock", |g: &StateGraph<Toy>| {
                g.find_fair_livelock(|_| true, |_| false).is_some()
            })
            .run()
            .unwrap();
        // The replaying explorer must register the same verdict set —
        // the names are part of the structural key (the predicates are
        // not evaluated on a warm path, so any bodies do).
        let report = Explorer::new(two_toys())
            .verdict("terminates", |_: &StateGraph<Toy>| false)
            .verdict("livelock", |_: &StateGraph<Toy>| false)
            .replay_certificate(&path)
            .unwrap();
        assert_eq!(report.states, graph.state_count() as u64);
        assert_eq!(report.edges, graph.edge_count() as u64);
        assert_eq!(
            report.verdicts,
            vec![
                ("terminates".to_string(), true),
                ("livelock".to_string(), false)
            ]
        );
    }

    /// Every worker count must emit byte-identical certificates: the
    /// canonical code sort erases discovery order.
    #[test]
    fn certificates_match_across_worker_counts() {
        let dir = cert_dir("engines");
        let seq_path = dir.join("seq.cert");
        let par_path = dir.join("par.cert");
        Explorer::new(two_toys()).certify(&seq_path).run().unwrap();
        Explorer::new(two_toys())
            .parallelism(4)
            .certify(&par_path)
            .run()
            .unwrap();
        let seq = std::fs::read(&seq_path).unwrap();
        let par = std::fs::read(&par_path).unwrap();
        assert_eq!(seq, par, "certificates diverge between worker counts");
    }

    /// A certificate is refused once the problem changes: different
    /// machine behavior, different limits, different failure model.
    #[test]
    fn stale_certificates_are_refused() {
        use anonreg_cache::CertError;
        let path = cert_dir("stale").join("toys.cert");
        Explorer::new(two_toys()).certify(&path).run().unwrap();
        // Same machines, different limits.
        let err = Explorer::new(two_toys())
            .max_states(77)
            .replay_certificate(&path)
            .unwrap_err();
        assert!(matches!(err, CertError::Stale { .. }), "{err}");
        assert!(err.to_string().contains("stale"), "{err}");
        // Same machines, crash model on.
        let err = Explorer::new(two_toys())
            .crashes(true)
            .replay_certificate(&path)
            .unwrap_err();
        assert!(matches!(err, CertError::Stale { .. }), "{err}");
        // Different initial configuration (three toys, not two).
        let three = Simulation::builder()
            .process(
                Toy {
                    pid: pid(1),
                    phase: 0,
                },
                View::identity(1),
            )
            .process(
                Toy {
                    pid: pid(2),
                    phase: 0,
                },
                View::identity(1),
            )
            .process(
                Toy {
                    pid: pid(3),
                    phase: 0,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let err = Explorer::new(three).replay_certificate(&path).unwrap_err();
        assert!(matches!(err, CertError::Stale { .. }), "{err}");
        // The unchanged problem still replays.
        assert!(Explorer::new(two_toys()).replay_certificate(&path).is_ok());
    }

    /// Two machine *types* whose initial fields encode identically must
    /// still key differently: their transition functions live in code,
    /// not in the encoded bytes, so without the type identity in the key
    /// one family's certificate could answer for the other.
    #[test]
    fn structural_hash_distinguishes_machine_types() {
        /// Field-for-field clone of [`Toy`] with different `resume`
        /// logic — it halts immediately, so its reachable set is a
        /// single state while `Toy`'s is not.
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct TwinToy {
            pid: Pid,
            phase: u8,
        }
        impl Machine for TwinToy {
            type Value = u64;
            type Event = &'static str;
            fn pid(&self) -> Pid {
                self.pid
            }
            fn register_count(&self) -> usize {
                1
            }
            fn resume(&mut self, _read: Option<u64>) -> Step<u64, &'static str> {
                Step::Halt
            }
        }
        let twins = Simulation::builder()
            .process(
                TwinToy {
                    pid: pid(1),
                    phase: 0,
                },
                View::identity(1),
            )
            .process(
                TwinToy {
                    pid: pid(2),
                    phase: 0,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        // The premise: both initial configurations encode to the same
        // bytes, so only the machine's type identity can separate them.
        assert_eq!(
            crate::canon::encode_plain(&two_toys()),
            crate::canon::encode_plain(&twins)
        );
        assert_ne!(
            Explorer::new(two_toys()).structural_hash(),
            Explorer::new(twins).structural_hash()
        );
    }

    /// The registered verdict set is part of the key: adding, renaming
    /// or dropping a verdict asks a different question, so it must miss
    /// the cache rather than warm-hit a certificate that never recorded
    /// the answer.
    #[test]
    fn structural_hash_tracks_the_verdict_set() {
        let bare = || Explorer::new(two_toys());
        let base = bare().structural_hash();
        let safety = bare()
            .verdict("safety", |_: &StateGraph<Toy>| false)
            .structural_hash();
        let renamed = bare()
            .verdict("liveness", |_: &StateGraph<Toy>| false)
            .structural_hash();
        let both = bare()
            .verdict("safety", |_: &StateGraph<Toy>| false)
            .verdict("liveness", |_: &StateGraph<Toy>| false)
            .structural_hash();
        assert_ne!(base, safety);
        assert_ne!(safety, renamed);
        assert_ne!(safety, both);
        // The predicate body is code, not identity: same names, same key.
        assert_eq!(
            safety,
            bare()
                .verdict("safety", |g: &StateGraph<Toy>| g.state_count() > 0)
                .structural_hash()
        );
    }

    /// Defense in depth behind the key: an intact certificate carrying
    /// the *right* structural key but the wrong verdict set (a key
    /// collision, or a store written by a tampered tool) is refused by
    /// the replay-side name comparison instead of answering the wrong
    /// question.
    #[test]
    fn replay_refuses_a_verdict_set_mismatch() {
        use anonreg_cache::{CertError, CertWriter};
        let path = cert_dir("verdict-mismatch").join("toys.cert");
        let expect = || Explorer::new(two_toys()).verdict("expected", |_: &StateGraph<Toy>| false);
        // Hand-build a certificate under the explorer's own key whose
        // recorded state set is just the initial configuration and whose
        // verdict section names something else entirely.
        let mut writer = CertWriter::create(&path, expect().structural_hash()).unwrap();
        writer
            .push_code(&crate::canon::encode_plain(&two_toys()))
            .unwrap();
        writer.finish(&[("other".to_string(), true)]).unwrap();
        let err = expect().replay_certificate(&path).unwrap_err();
        match err {
            CertError::VerdictMismatch {
                recorded,
                registered,
            } => {
                assert_eq!(recorded, vec!["other".to_string()]);
                assert_eq!(registered, vec!["expected".to_string()]);
            }
            other => panic!("expected a verdict-set mismatch, got: {other}"),
        }
    }

    /// The structural hash must also see the *views*: the plain state
    /// encoding omits them, so a rotated view with identical machines
    /// must still produce a different key.
    #[test]
    fn structural_hash_distinguishes_views() {
        /// Two-register toy so a non-identity view exists.
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct Wide {
            pid: Pid,
            done: bool,
        }
        impl Machine for Wide {
            type Value = u64;
            type Event = ();
            fn pid(&self) -> Pid {
                self.pid
            }
            fn register_count(&self) -> usize {
                2
            }
            fn resume(&mut self, _read: Option<u64>) -> Step<u64, ()> {
                if self.done {
                    Step::Halt
                } else {
                    self.done = true;
                    Step::Write(0, self.pid.get())
                }
            }
        }
        let build = |second_view: View| {
            Simulation::builder()
                .process(
                    Wide {
                        pid: pid(1),
                        done: false,
                    },
                    View::identity(2),
                )
                .process(
                    Wide {
                        pid: pid(2),
                        done: false,
                    },
                    second_view,
                )
                .build()
                .unwrap()
        };
        assert_ne!(
            Explorer::new(build(View::rotated(2, 1))).structural_hash(),
            Explorer::new(build(View::identity(2))).structural_hash()
        );
    }

    /// `run_cached` — cold populates, warm replays, counts agree, and
    /// the escape hatch is honored by the store layer.
    #[test]
    fn run_cached_warm_matches_cold() {
        use crate::explore::cert::run_cached;
        let store = anonreg_cache::CacheStore::new(cert_dir("runcached")).unwrap();
        let key = Explorer::new(two_toys()).structural_hash();
        let _ = store.invalidate(key);
        let cold = run_cached(&store, || {
            Explorer::new(two_toys()).verdict("terminates", |g: &StateGraph<Toy>| {
                g.find_state(Simulation::all_halted).is_some()
            })
        })
        .unwrap();
        assert!(!cold.warm);
        let warm = run_cached(&store, || {
            Explorer::new(two_toys()).verdict("terminates", |g: &StateGraph<Toy>| {
                g.find_state(Simulation::all_halted).is_some()
            })
        })
        .unwrap();
        assert!(warm.warm, "second run should replay the certificate");
        assert_eq!(warm.states, cold.states);
        assert_eq!(warm.edges, cold.edges);
        assert_eq!(warm.verdicts, cold.verdicts);
    }

    /// A damaged certificate degrades to a cold recomputation, never an
    /// error.
    #[test]
    fn run_cached_recovers_from_corruption() {
        use crate::explore::cert::run_cached;
        let store = anonreg_cache::CacheStore::new(cert_dir("corrupt")).unwrap();
        let key = Explorer::new(two_toys()).structural_hash();
        let cold = run_cached(&store, || Explorer::new(two_toys())).unwrap();
        std::fs::write(store.path(key), b"not a certificate").unwrap();
        let recomputed = run_cached(&store, || Explorer::new(two_toys())).unwrap();
        assert!(!recomputed.warm);
        assert_eq!(recomputed.states, cold.states);
        // And the refreshed certificate serves the next run warm.
        let warm = run_cached(&store, || Explorer::new(two_toys())).unwrap();
        assert!(warm.warm);
    }

    /// Warm replays emit the cache probe counters.
    #[test]
    fn replay_emits_cache_metrics() {
        use anonreg_obs::MemProbe;
        let path = cert_dir("metrics").join("toys.cert");
        Explorer::new(two_toys()).certify(&path).run().unwrap();
        let probe = MemProbe::new();
        Explorer::new(two_toys())
            .probe(&probe)
            .replay_certificate(&path)
            .unwrap();
        let snap = probe.into_snapshot();
        assert_eq!(snap.counter_total(Metric::CacheHit), 1);
        assert!(snap.counter_total(Metric::CacheReplayTime) > 0);
    }
}
