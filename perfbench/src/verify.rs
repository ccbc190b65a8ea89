//! Instances of the paper's algorithms and their exhaustive verification
//! through `anonreg-sim`'s public API: build, [`Explorer::run`], and the
//! analysis calls `check mutex|consensus|renaming` makes.
//!
//! Every call into a layer is bracketed by a span when tracing is on;
//! the traced run also attaches a [`MemProbe`] and a [`Profiler`] to the
//! explorer and samples the canonical encoder over the finished graph.

use std::collections::BTreeMap;
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

use anonreg::consensus::AnonConsensus;
use anonreg::election::AnonElection;
use anonreg::mutex::{AnonMutex, MutexEvent, Section};
use anonreg::renaming::AnonRenaming;
use anonreg::{Machine, Pid, PidMap, View};
use anonreg_model::rng::Rng64;
use anonreg_model::trace::Trace;
use anonreg_obs::{MemProbe, Metric, Profiler};
use anonreg_sim::obstruction::check_obstruction_freedom;
use anonreg_sim::prelude::*;

use crate::oracle::{Shape, Verdicts};
use crate::trace::Tracer;

/// The default state cap of `check`.
pub const CHECK_MAX_STATES: usize = 4_000_000;

/// Explorer settings shared by every instance of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    /// Explorer worker threads.
    pub workers: usize,
    /// State cap.
    pub max_states: usize,
}

/// Which algorithm an instance runs, with its size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 1 mutex, two processes over `m` registers.
    Mutex {
        /// Registers.
        m: usize,
    },
    /// Fig. 2 consensus.
    Consensus {
        /// Processes.
        n: usize,
        /// Registers.
        registers: usize,
    },
    /// §4 election over the default `2n - 1` registers (the machine
    /// offers no other register count).
    Election {
        /// Processes.
        n: usize,
    },
    /// Fig. 3 renaming.
    Renaming {
        /// Processes.
        n: usize,
        /// Registers.
        registers: usize,
    },
}

/// One verification problem: an algorithm, a view per process and, for
/// consensus, an input per process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    /// Algorithm and size.
    pub kind: Kind,
    /// One register permutation per process (`perm[local] == physical`).
    pub views: Vec<Vec<usize>>,
    /// Consensus inputs, one per process (empty otherwise).
    pub inputs: Vec<u64>,
}

fn rotation_of(perm: &[usize]) -> Option<usize> {
    let m = perm.len();
    let s = *perm.first()?;
    (0..m).all(|j| perm[j] == (j + s) % m).then_some(s)
}

impl Instance {
    /// Registers the instance runs over.
    #[must_use]
    pub fn registers(&self) -> usize {
        self.views[0].len()
    }

    /// The oracle key.
    #[must_use]
    pub fn shape(&self) -> Shape {
        match self.kind {
            Kind::Mutex { m } => {
                let ring_shift = match (rotation_of(&self.views[0]), rotation_of(&self.views[1])) {
                    (Some(a), Some(b)) => Some((b + m - a) % m),
                    _ => None,
                };
                Shape::Mutex { m, ring_shift }
            }
            Kind::Consensus { n, registers } => Shape::Consensus { n, registers },
            Kind::Election { n } => Shape::Election {
                n,
                registers: self.registers(),
            },
            Kind::Renaming { n, registers } => Shape::Renaming { n, registers },
        }
    }

    /// A short readable name.
    #[must_use]
    pub fn label(&self) -> String {
        let views: Vec<String> = self
            .views
            .iter()
            .map(|v| v.iter().map(ToString::to_string).collect())
            .collect();
        let views = views.join("/");
        match self.kind {
            Kind::Mutex { m } => format!("mutex_m{m}_v{views}"),
            Kind::Consensus { n, registers } => format!("consensus_n{n}_r{registers}_v{views}"),
            Kind::Election { n } => format!("election_n{n}_v{views}"),
            Kind::Renaming { n, registers } => format!("renaming_n{n}_r{registers}_v{views}"),
        }
    }
}

fn identity(m: usize) -> Vec<usize> {
    (0..m).collect()
}

fn rotated(m: usize, shift: usize) -> Vec<usize> {
    (0..m).map(|j| (j + shift) % m).collect()
}

/// The instance list of `verify_small` for `seed`: a fixed mix of small
/// instances, each with 10^2 to 6 * 10^4 states, whose views, inputs and
/// order the seed draws.
#[must_use]
pub fn draw_small(seed: u64) -> Vec<Instance> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..4 {
        let views = vec![rng.permutation(3), rng.permutation(3)];
        out.push(Instance {
            kind: Kind::Mutex { m: 3 },
            views,
            inputs: Vec::new(),
        });
    }
    // m = 2 under the ring (relative shift 1): the two views are the two
    // permutations of two registers, in a seeded order.
    let mut ring = vec![identity(2), rotated(2, 1)];
    rng.shuffle(&mut ring);
    out.push(Instance {
        kind: Kind::Mutex { m: 2 },
        views: ring,
        inputs: Vec::new(),
    });
    for registers in [3, 1] {
        let mut inputs = vec![rng.gen_range_inclusive(1, 4) as u64];
        inputs.push(1 + (inputs[0] + rng.gen_index(3) as u64) % 4);
        out.push(Instance {
            kind: Kind::Consensus { n: 2, registers },
            views: vec![rng.permutation(registers), rng.permutation(registers)],
            inputs,
        });
        out.push(Instance {
            kind: Kind::Renaming { n: 2, registers },
            views: vec![rng.permutation(registers), rng.permutation(registers)],
            inputs: Vec::new(),
        });
    }
    out.push(Instance {
        kind: Kind::Election { n: 2 },
        views: vec![rng.permutation(3), rng.permutation(3)],
        inputs: Vec::new(),
    });
    rng.shuffle(&mut out);
    out
}

/// The two fixed instances of `explore_large`.
#[must_use]
pub fn large() -> Vec<Instance> {
    vec![
        // `check consensus --n 3 --registers 2`: views rotated by i * 1.
        Instance {
            kind: Kind::Consensus { n: 3, registers: 2 },
            views: (0..3).map(|i| rotated(2, i % 2)).collect(),
            inputs: vec![1, 2, 3],
        },
        // `check mutex --m 5 --shift 2`.
        Instance {
            kind: Kind::Mutex { m: 5 },
            views: vec![identity(5), rotated(5, 2)],
            inputs: Vec::new(),
        },
    ]
}

fn pid(n: usize) -> Pid {
    Pid::new(n as u64 + 1).expect("slot + 1 is never zero")
}

fn sim_of<M: Machine>(machines: Vec<M>, views: &[Vec<usize>]) -> Simulation<M> {
    let mut b = Simulation::builder();
    for (machine, perm) in machines.into_iter().zip(views) {
        b = b.process(
            machine,
            View::from_perm(perm.clone()).expect("drawn views are permutations"),
        );
    }
    b.build().expect("instances are uniform configurations")
}

/// A built instance, ready to explore (clone per run: the explorer
/// consumes its initial state).
pub enum Built {
    /// Fig. 1.
    Mutex(Simulation<AnonMutex>),
    /// Fig. 2.
    Consensus(Simulation<AnonConsensus>),
    /// §4.
    Election(Simulation<AnonElection>),
    /// Fig. 3.
    Renaming(Simulation<AnonRenaming>),
}

/// Builds the simulation of `inst` (the `build` layer call).
#[must_use]
pub fn build(inst: &Instance) -> Built {
    let procs = inst.views.len();
    match inst.kind {
        Kind::Mutex { m } => Built::Mutex(sim_of(
            (0..procs)
                .map(|i| AnonMutex::new(pid(i), m).expect("m >= 1"))
                .collect(),
            &inst.views,
        )),
        Kind::Consensus { n, registers } => Built::Consensus(sim_of(
            (0..procs)
                .map(|i| {
                    AnonConsensus::new(pid(i), n, inst.inputs[i])
                        .expect("n >= 1 and inputs >= 1")
                        .with_registers(registers)
                })
                .collect(),
            &inst.views,
        )),
        Kind::Election { n } => Built::Election(sim_of(
            (0..procs)
                .map(|i| AnonElection::new(pid(i), n).expect("n >= 1"))
                .collect(),
            &inst.views,
        )),
        Kind::Renaming { n, registers } => Built::Renaming(sim_of(
            (0..procs)
                .map(|i| {
                    AnonRenaming::new(pid(i), n)
                        .expect("n >= 1")
                        .with_registers(registers)
                })
                .collect(),
            &inst.views,
        )),
    }
}

/// What a verification produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Reachable states.
    pub states: usize,
    /// Transitions.
    pub edges: usize,
    /// Every verdict, `true` when the property holds.
    pub verdicts: Verdicts,
}

/// Per-layer figures the traced run accumulates from the probe, the
/// profiler and its own timers.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Nanoseconds inside `Explorer::run`.
    pub explore_wall_ns: u64,
    /// Workers x wall of each run, in nanoseconds.
    pub worker_wall_ns: u64,
    /// Profiler self time by phase name.
    pub phase_ns: BTreeMap<String, u64>,
    /// Probe counters.
    pub states: u64,
    /// Probe counters.
    pub edges: u64,
    /// Probe counters.
    pub dedup: u64,
    /// Probe counters.
    pub bloom_neg: u64,
    /// Probe counters.
    pub steals: u64,
    /// Solo runs of the obstruction checker.
    pub solo_runs: u64,
    /// Worst solo cost seen.
    pub solo_ops_max: u64,
    /// Canonical encodings timed.
    pub canon_states: u64,
    /// Nanoseconds spent in them.
    pub canon_ns: u64,
    /// Bytes they produced.
    pub canon_bytes: u64,
}

/// Self nanoseconds per phase over every worker of `profiler`, keyed by
/// the innermost phase of each stack (`doorway;waiting` counts as
/// `waiting`).
#[must_use]
pub fn phase_self_ns(profiler: &Profiler) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for worker in profiler.profiles() {
        for (stack, ns) in worker.frames {
            let leaf = stack.rsplit(';').next().unwrap_or(&stack).to_string();
            *out.entry(leaf).or_default() += ns;
        }
    }
    out
}

/// States sampled per graph to time the canonical encoder.
const CANON_SAMPLE: usize = 256;

impl Layers {
    /// Adds one instrumented `Explorer::run`.
    pub fn absorb_explore(
        &mut self,
        probe: &MemProbe,
        profiler: &Profiler,
        wall_ns: u64,
        workers: usize,
    ) {
        let snap = probe.snapshot();
        self.explore_wall_ns += wall_ns;
        self.worker_wall_ns += wall_ns * workers as u64;
        self.states += snap.counter_total(Metric::ExploreStates);
        self.edges += snap.counter_total(Metric::ExploreEdges);
        self.dedup += snap.counter_total(Metric::ExploreDedup);
        self.bloom_neg += snap.counter_total(Metric::BloomNeg);
        self.steals += snap.counter_total(Metric::ExploreSteals);
        for (phase, ns) in phase_self_ns(profiler) {
            *self.phase_ns.entry(phase).or_default() += ns;
        }
    }

    /// Times the canonical encoder over a sample of `graph`'s states.
    pub fn sample_canon<M>(&mut self, graph: &StateGraph<M>)
    where
        M: Machine + Eq + Hash + PidMap,
        M::Value: PidMap,
    {
        let stride = (graph.state_count() / CANON_SAMPLE).max(1);
        let sample: Vec<&Simulation<M>> = graph
            .states()
            .step_by(stride)
            .take(CANON_SAMPLE)
            .map(|(_, s)| s)
            .collect();
        let start = Instant::now();
        let mut bytes = 0;
        for s in &sample {
            bytes += std::hint::black_box(s.canonical_code(SymmetryMode::Off)).len();
        }
        self.canon_ns += u64::try_from(start.elapsed().as_nanos()).expect("sample time fits");
        self.canon_states += sample.len() as u64;
        self.canon_bytes += bytes as u64;
    }
}

/// The tracer plus, in the traced run, the per-layer accumulator.
pub struct Ctx {
    /// Span recorder (disabled in the measured run).
    pub tracer: Tracer,
    /// `Some` in the traced run only.
    pub layers: Option<Layers>,
}

impl Ctx {
    /// The measured run's context: no spans, no probe, no profiler.
    #[must_use]
    pub fn untraced() -> Self {
        Ctx {
            tracer: Tracer::off(),
            layers: None,
        }
    }
}

fn explore<M>(
    sim: Simulation<M>,
    cfg: Cfg,
    ctx: &mut Ctx,
    group: u64,
) -> Result<StateGraph<M>, ExploreError>
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let explorer = Explorer::new(sim)
        .max_states(cfg.max_states)
        .parallelism(cfg.workers);
    let Some(layers) = ctx.layers.as_mut() else {
        let open = ctx.tracer.enter("explore", group);
        let graph = explorer.run();
        ctx.tracer.exit(open);
        return graph;
    };
    let probe = MemProbe::new();
    let profiler = Arc::new(Profiler::new());
    let open = ctx.tracer.enter("explore", group);
    let start = Instant::now();
    let graph = explorer.probe(&probe).profiler(Arc::clone(&profiler)).run();
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).expect("run time fits");
    ctx.tracer.exit(open);
    layers.absorb_explore(&probe, &profiler, wall_ns, cfg.workers);
    if let Ok(g) = &graph {
        let open = ctx.tracer.enter("canon_sample", group);
        layers.sample_canon(g);
        ctx.tracer.exit(open);
    }
    graph
}

fn timed<T>(ctx: &mut Ctx, name: &'static str, group: u64, f: impl FnOnce() -> T) -> T {
    let open = ctx.tracer.enter(name, group);
    let out = f();
    ctx.tracer.exit(open);
    out
}

/// Replays the schedule to every terminal state from `initial` and
/// checks its trace; `false` at the first trace `ok` rejects.
fn terminal_traces_ok<M>(
    graph: &StateGraph<M>,
    initial: &Simulation<M>,
    mut ok: impl FnMut(&Trace<M::Value, M::Event>) -> bool,
) -> bool
where
    M: Machine + Eq + Hash,
{
    for (id, state) in graph.states() {
        if !state.all_halted() {
            continue;
        }
        let mut sim = initial.clone();
        for p in graph.schedule_to(id) {
            sim.step(p).expect("a recorded schedule replays");
        }
        if !ok(sim.trace()) {
            return false;
        }
    }
    true
}

/// Solo-step budget for the obstruction checker, as `check` sets it.
fn solo_budget(registers: usize) -> usize {
    4 * registers * (registers + 2) + 64
}

fn obstruction<M>(graph: &StateGraph<M>, registers: usize, ctx: &mut Ctx, group: u64) -> bool
where
    M: Machine + Eq + Hash,
{
    let report = timed(ctx, "obstruction", group, || {
        check_obstruction_freedom(graph, solo_budget(registers))
    });
    if let (Some(layers), Ok(r)) = (ctx.layers.as_mut(), &report) {
        layers.solo_runs += r.solo_runs as u64;
        layers.solo_ops_max = layers.solo_ops_max.max(r.max_solo_ops as u64);
    }
    report.is_ok()
}

/// The outcome of one instance. The graph is freed inside a span of
/// its own: dropping a graph of up to a gigabyte takes a measurable
/// share of the time to a verdict.
fn finish<M: Machine>(ctx: &mut Ctx, group: u64, g: StateGraph<M>, verdicts: Verdicts) -> Outcome {
    let out = Outcome {
        states: g.state_count(),
        edges: g.edge_count(),
        verdicts,
    };
    timed(ctx, "graph_drop", group, || drop(g));
    out
}

/// Verifies one instance to all of its verdicts.
///
/// # Errors
///
/// Any [`ExploreError`] from the exploration.
pub fn verify(
    inst: &Instance,
    built: &Built,
    cfg: Cfg,
    ctx: &mut Ctx,
    group: u64,
) -> Result<Outcome, ExploreError> {
    let open = ctx.tracer.enter("verify", group);
    let out = all_verdicts(inst, built, cfg, ctx, group);
    ctx.tracer.exit(open);
    out
}

fn all_verdicts(
    inst: &Instance,
    built: &Built,
    cfg: Cfg,
    ctx: &mut Ctx,
    group: u64,
) -> Result<Outcome, ExploreError> {
    let registers = inst.registers();
    Ok(match built {
        Built::Mutex(sim) => {
            let g = explore(sim.clone(), cfg, ctx, group)?;
            let two_inside = |s: &Simulation<AnonMutex>| {
                s.machines()
                    .filter(|m| m.section() == Section::Critical)
                    .count()
                    >= 2
            };
            let me = timed(ctx, "safety", group, || g.find_state(two_inside).is_none());
            let entry = |m: &AnonMutex| m.section() == Section::Entry;
            let enter = |e: &MutexEvent| *e == MutexEvent::Enter;
            let df = timed(ctx, "livelock", group, || {
                g.find_fair_livelock(entry, enter).is_none()
            });
            let sf0 = timed(ctx, "starvation", group, || {
                g.find_fair_starvation(0, entry, enter).is_none()
            });
            let sf1 = timed(ctx, "starvation", group, || {
                g.find_fair_starvation(1, entry, enter).is_none()
            });
            finish(
                ctx,
                group,
                g,
                vec![
                    ("mutual_exclusion", me),
                    ("deadlock_freedom", df),
                    ("starvation_freedom_p0", sf0),
                    ("starvation_freedom_p1", sf1),
                ],
            )
        }
        Built::Consensus(sim) => {
            let g = explore(sim.clone(), cfg, ctx, group)?;
            let agreement = timed(ctx, "safety", group, || {
                g.find_state(|s| {
                    let d: Vec<u64> = s
                        .machines()
                        .filter(|m| m.has_decided())
                        .map(AnonConsensus::preference)
                        .collect();
                    d.windows(2).any(|w| w[0] != w[1])
                })
                .is_none()
            });
            let validity = timed(ctx, "safety", group, || {
                g.find_state(|s| {
                    s.machines()
                        .any(|m| m.has_decided() && !inst.inputs.contains(&m.preference()))
                })
                .is_none()
            });
            let of = obstruction(&g, registers, ctx, group);
            finish(
                ctx,
                group,
                g,
                vec![
                    ("agreement", agreement),
                    ("validity", validity),
                    ("obstruction_freedom", of),
                ],
            )
        }
        Built::Election(sim) => {
            let g = explore(sim.clone(), cfg, ctx, group)?;
            let participants: Vec<Pid> = (0..inst.views.len()).map(pid).collect();
            let agreement = timed(ctx, "election_replay", group, || {
                terminal_traces_ok(&g, sim, |t| {
                    anonreg::spec::check_election(t, &participants).is_ok()
                })
            });
            let of = obstruction(&g, registers, ctx, group);
            finish(
                ctx,
                group,
                g,
                vec![("agreement", agreement), ("obstruction_freedom", of)],
            )
        }
        Built::Renaming(sim) => {
            let g = explore(sim.clone(), cfg, ctx, group)?;
            let n = u32::try_from(inst.views.len()).expect("few processes");
            let unique = timed(ctx, "renaming_replay", group, || {
                terminal_traces_ok(&g, sim, |t| anonreg::spec::check_renaming(t, n).is_ok())
            });
            let of = obstruction(&g, registers, ctx, group);
            finish(
                ctx,
                group,
                g,
                vec![("uniqueness_range", unique), ("obstruction_freedom", of)],
            )
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    fn counts(seed: u64) -> Vec<(String, usize, usize)> {
        let cfg = Cfg {
            workers: 1,
            max_states: 200_000,
        };
        draw_small(seed)
            .iter()
            .map(|inst| {
                let o = verify(inst, &build(inst), cfg, &mut Ctx::untraced(), 0).unwrap();
                (inst.label(), o.states, o.edges)
            })
            .collect()
    }

    #[test]
    fn same_seed_draws_the_same_instances_with_the_same_counts() {
        assert_eq!(draw_small(7), draw_small(7));
        assert_ne!(draw_small(7), draw_small(8));
        let first = counts(7);
        assert_eq!(first, counts(7));
        for (label, states, _) in &first {
            assert!(
                (100..=60_000).contains(states),
                "{label}: {states} states is outside the small range"
            );
        }
    }

    #[test]
    fn small_instances_meet_the_oracle() {
        let cfg = Cfg {
            workers: 2,
            max_states: 200_000,
        };
        for inst in draw_small(3) {
            let o = verify(&inst, &build(&inst), cfg, &mut Ctx::untraced(), 0).unwrap();
            oracle::check(inst.shape(), &o.verdicts).unwrap();
        }
    }

    #[test]
    fn a_flipped_verdict_fails_the_oracle() {
        let inst = draw_small(1)
            .into_iter()
            .find(|i| i.kind == Kind::Mutex { m: 3 })
            .unwrap();
        let cfg = Cfg {
            workers: 1,
            max_states: 200_000,
        };
        let mut o = verify(&inst, &build(&inst), cfg, &mut Ctx::untraced(), 0).unwrap();
        oracle::check(inst.shape(), &o.verdicts).unwrap();
        o.verdicts[0].1 = !o.verdicts[0].1;
        assert!(oracle::check(inst.shape(), &o.verdicts).is_err());
    }

    #[test]
    fn traced_verification_fills_every_layer() {
        let mut ctx = Ctx {
            tracer: Tracer::on(Instant::now(), 0, 1 << 12),
            layers: Some(Layers::default()),
        };
        let cfg = Cfg {
            workers: 2,
            max_states: 200_000,
        };
        for inst in draw_small(5) {
            verify(&inst, &build(&inst), cfg, &mut ctx, 1).unwrap();
        }
        let layers = ctx.layers.unwrap();
        assert!(layers.states > 0 && layers.edges > 0 && layers.canon_states > 0);
        assert!(layers.phase_ns.contains_key("step"));
        let names = crate::trace::totals(ctx.tracer.spans());
        for name in [
            "verify",
            "explore",
            "safety",
            "livelock",
            "starvation",
            "obstruction",
            "renaming_replay",
            "election_replay",
            "graph_drop",
        ] {
            assert!(names.contains_key(name), "no {name} span");
        }
    }
}
