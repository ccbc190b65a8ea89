//! `reverify_cached`: the seven E20 family instances through
//! `run_cached` at `check verify-cache`'s defaults (1 worker, a
//! 2,000,000-state cap), a cold pass against an emptied store and then a
//! warm pass that must replay every certificate.

use std::hash::Hash;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anonreg::baseline::Peterson;
use anonreg::consensus::AnonConsensus;
use anonreg::election::AnonElection;
use anonreg::hybrid::{named_view, HybridMutex};
use anonreg::mutex::{AnonMutex, Section};
use anonreg::ordered::OrderedMutex;
use anonreg::renaming::AnonRenaming;
use anonreg::{Machine, Pid, PidMap, View};
use anonreg_obs::{MemProbe, Profiler};
use anonreg_sim::prelude::*;
use anonreg_sim::symmetry::ring_views;

use crate::oracle::{self, Shape};
use crate::report::Report;
use crate::sim_workloads::{sim_layers, zero_layers};
use crate::stats::{max, median, percentile};
use crate::sys::{peak_rss_mib, reset_peak_rss};
use crate::trace::Tracer;
use crate::verify::Layers;
use crate::{ms, Opts, SetUpTimes, SPAN_CAP};

/// `check verify-cache` defaults.
pub const WORKERS: usize = 1;
/// `check verify-cache` defaults.
pub const MAX_STATES: usize = 2_000_000;

/// Cold family calls a run needs so their p90 leaves ten beyond it.
const FAMILY_MIN_SAMPLES: usize = 100;

/// The seven E20 families, in E20's order.
pub const FAMILIES: [&str; 7] = [
    "mutex",
    "ordered",
    "hybrid",
    "peterson",
    "consensus",
    "renaming",
    "election",
];

fn pid(n: u64) -> Pid {
    Pid::new(n).expect("identifiers start at 1")
}

/// The initial configurations of E20's seven instances.
pub struct Sims {
    mutex: Simulation<AnonMutex>,
    ordered: Simulation<OrderedMutex>,
    hybrid: Simulation<HybridMutex>,
    peterson: Simulation<Peterson>,
    consensus: Simulation<AnonConsensus>,
    renaming: Simulation<AnonRenaming>,
    election: Simulation<AnonElection>,
}

impl Sims {
    /// Builds all seven, as E20 does.
    #[must_use]
    pub fn build() -> Self {
        let mut mutex = Simulation::builder();
        for (i, view) in ring_views(2, 2)
            .expect("2 divides 2")
            .into_iter()
            .enumerate()
        {
            mutex = mutex.process(
                AnonMutex::new(pid(i as u64 + 1), 2)
                    .expect("m = 2")
                    .with_cycles(1),
                view,
            );
        }
        let h1 = named_view(3, (0..3).collect()).expect("a permutation");
        let h2 = named_view(3, (0..3).map(|j| (j + 1) % 3).collect()).expect("a permutation");
        let built = "E20 configurations are uniform";
        Sims {
            mutex: mutex.build().expect(built),
            ordered: Simulation::builder()
                .process(
                    OrderedMutex::new(pid(1), 3).expect("m = 3"),
                    View::identity(3),
                )
                .process(
                    OrderedMutex::new(pid(2), 3).expect("m = 3"),
                    View::rotated(3, 1),
                )
                .build()
                .expect(built),
            hybrid: Simulation::builder()
                .process(HybridMutex::new(pid(1), 3).expect("m = 3"), h1)
                .process(HybridMutex::new(pid(2), 3).expect("m = 3"), h2)
                .build()
                .expect(built),
            peterson: Simulation::builder()
                .process_identity(Peterson::new(pid(1), 0).expect("slot 0"))
                .process_identity(Peterson::new(pid(2), 1).expect("slot 1"))
                .build()
                .expect(built),
            consensus: Simulation::builder()
                .process(
                    AnonConsensus::new(pid(1), 2, 1)
                        .expect("n = 2")
                        .with_registers(2),
                    View::identity(2),
                )
                .process(
                    AnonConsensus::new(pid(2), 2, 2)
                        .expect("n = 2")
                        .with_registers(2),
                    View::rotated(2, 1),
                )
                .build()
                .expect(built),
            renaming: Simulation::builder()
                .process(
                    AnonRenaming::new(pid(1), 2).expect("n = 2"),
                    View::identity(3),
                )
                .process(
                    AnonRenaming::new(pid(2), 2).expect("n = 2"),
                    View::rotated(3, 1),
                )
                .build()
                .expect(built),
            election: Simulation::builder()
                .process(
                    AnonElection::new(pid(1), 2).expect("n = 2"),
                    View::identity(3),
                )
                .process(
                    AnonElection::new(pid(2), 2).expect("n = 2"),
                    View::rotated(3, 1),
                )
                .build()
                .expect(built),
        }
    }
}

/// Mutual exclusion for the mutex-like families: no reachable state has
/// two processes in their critical sections.
fn exclusion<M>(section: fn(&M) -> Section) -> impl Fn(&StateGraph<M>) -> bool + 'static
where
    M: Machine + Eq + Hash + 'static,
{
    move |g: &StateGraph<M>| {
        g.find_state(|s| {
            s.machines()
                .filter(|m| section(m) == Section::Critical)
                .count()
                >= 2
        })
        .is_none()
    }
}

/// Called once per family with an explorer factory for it.
trait Visit {
    fn visit<M>(&mut self, family: &'static str, base: &dyn Fn() -> Explorer<'static, M>)
    where
        M: Machine + Eq + Hash + PidMap,
        M::Value: PidMap;
}

fn cfg<M: Machine + Eq + Hash>(sim: &Simulation<M>) -> Explorer<'static, M> {
    Explorer::new(sim.clone())
        .max_states(MAX_STATES)
        .parallelism(WORKERS)
}

fn each_family(sims: &Sims, v: &mut impl Visit) {
    v.visit("mutex", &|| {
        cfg(&sims.mutex).verdict("mutual_exclusion", exclusion(AnonMutex::section))
    });
    v.visit("ordered", &|| {
        cfg(&sims.ordered).verdict("mutual_exclusion", exclusion(OrderedMutex::section))
    });
    v.visit("hybrid", &|| {
        cfg(&sims.hybrid).verdict("mutual_exclusion", exclusion(HybridMutex::section))
    });
    v.visit("peterson", &|| {
        cfg(&sims.peterson).verdict("mutual_exclusion", exclusion(Peterson::section))
    });
    v.visit("consensus", &|| {
        cfg(&sims.consensus).verdict("agreement", |g: &StateGraph<AnonConsensus>| {
            g.find_state(|s| {
                let d: Vec<u64> = s
                    .machines()
                    .filter(|m| m.has_decided())
                    .map(AnonConsensus::preference)
                    .collect();
                d.len() == 2 && d[0] != d[1]
            })
            .is_none()
        })
    });
    v.visit("renaming", &|| {
        cfg(&sims.renaming).verdict("all_named", |g: &StateGraph<AnonRenaming>| {
            g.find_state(|s| s.all_halted() && s.machines().any(|m| !m.has_name()))
                .is_none()
        })
    });
    v.visit("election", &|| {
        cfg(&sims.election).verdict("all_elected", |g: &StateGraph<AnonElection>| {
            g.find_state(|s| s.all_halted() && s.machines().any(|m| !m.has_elected()))
                .is_none()
        })
    });
}

/// One family's call, timed from outside.
struct Call {
    family: &'static str,
    result: Result<CachedOutcome, ExploreError>,
    wall: Duration,
}

/// How a pass calls each family.
enum Mode<'a> {
    /// Through `run_cached`.
    Cached,
    /// A bare `Explorer::run`: the baseline certificate emission is
    /// measured against.
    Plain,
    /// A bare `Explorer::run` with probe and profiler, for the explorer
    /// layers.
    Instrumented(&'a mut Layers),
}

/// Runs every family one way, one span per call.
struct Pass<'a> {
    store: &'a CacheStore,
    tracer: &'a mut Tracer,
    group: u64,
    mode: Mode<'a>,
    calls: Vec<Call>,
}

impl Visit for Pass<'_> {
    fn visit<M>(&mut self, family: &'static str, base: &dyn Fn() -> Explorer<'static, M>)
    where
        M: Machine + Eq + Hash + PidMap,
        M::Value: PidMap,
    {
        let span = match self.mode {
            Mode::Cached => "run_cached",
            Mode::Plain | Mode::Instrumented(_) => "explore",
        };
        let open = self.tracer.enter(span, self.group);
        let start = Instant::now();
        let result = match &mut self.mode {
            Mode::Cached => run_cached(self.store, base),
            Mode::Plain => base().run().map(|g| plain_outcome(&g, start.elapsed())),
            Mode::Instrumented(layers) => {
                let probe = MemProbe::new();
                let profiler = Arc::new(Profiler::new());
                let graph = base().probe(&probe).profiler(Arc::clone(&profiler)).run();
                let wall = start.elapsed();
                layers.absorb_explore(
                    &probe,
                    &profiler,
                    u64::try_from(wall.as_nanos()).expect("run time fits"),
                    WORKERS,
                );
                if let Ok(g) = &graph {
                    layers.sample_canon(g);
                }
                graph.map(|g| plain_outcome(&g, wall))
            }
        };
        let wall = start.elapsed();
        self.tracer.exit(open);
        self.calls.push(Call {
            family,
            result,
            wall,
        });
    }
}

fn plain_outcome<M: Machine>(g: &StateGraph<M>, elapsed: Duration) -> CachedOutcome {
    CachedOutcome {
        warm: false,
        states: g.state_count() as u64,
        edges: g.edge_count() as u64,
        verdicts: Vec::new(),
        elapsed,
    }
}

fn run_pass(
    sims: &Sims,
    store: &CacheStore,
    tracer: &mut Tracer,
    group: u64,
    mode: Mode<'_>,
) -> Vec<Call> {
    let mut pass = Pass {
        store,
        tracer,
        group,
        mode,
        calls: Vec::new(),
    };
    each_family(sims, &mut pass);
    pass.calls
}

fn verdicts(o: &CachedOutcome) -> Vec<(&str, bool)> {
    o.verdicts.iter().map(|(n, v)| (n.as_str(), *v)).collect()
}

/// Checks a cold call against the oracle and the first pass.
fn check_cold(call: &Call, first: &mut Option<CachedOutcome>) -> Result<(), String> {
    let family = call.family;
    let out = call
        .result
        .as_ref()
        .map_err(|e| format!("{family} cold: {e}"))?;
    if out.warm {
        return Err(format!("{family}: the cold pass replayed a certificate"));
    }
    oracle::check(Shape::Family(family), &verdicts(out))?;
    match first {
        None => *first = Some(out.clone()),
        Some(prev)
            if (prev.states, prev.edges, &prev.verdicts)
                != (out.states, out.edges, &out.verdicts) =>
        {
            return Err(format!(
                "{family}: cold counts or verdicts changed between passes"
            ));
        }
        Some(_) => {}
    }
    Ok(())
}

/// Checks a warm call: it must replay, with the cold call's counts and
/// verdicts.
fn check_warm(call: &Call, cold: &Call) -> Result<(), String> {
    let family = call.family;
    let out = call
        .result
        .as_ref()
        .map_err(|e| format!("{family} warm: {e}"))?;
    if !out.warm {
        return Err(format!("{family}: the warm pass missed the store"));
    }
    let Ok(c) = &cold.result else {
        return Err(format!("{family}: no cold result to compare"));
    };
    if (c.states, c.edges, &c.verdicts) != (out.states, out.edges, &out.verdicts) {
        return Err(format!(
            "{family}: warm {} states {} edges {:?} != cold {} {} {:?}",
            out.states, out.edges, out.verdicts, c.states, c.edges, c.verdicts
        ));
    }
    Ok(())
}

fn store_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .filter(std::fs::Metadata::is_file)
            .map(|m| m.len())
            .sum()
    })
}

/// Runs `reverify_cached`; returns the report and its tracer.
///
/// # Panics
///
/// Panics if the store directory cannot be created under the work
/// directory.
#[must_use]
pub fn run(o: &Opts) -> (Report, Tracer) {
    let mut report = Report::default();
    let mut tracer = if o.trace {
        Tracer::on(o.epoch, 0, SPAN_CAP)
    } else {
        Tracer::off()
    };
    let dir = o.workdir.join(format!("store-{}", std::process::id()));

    // Set-up: build the seven initial configurations and create an
    // empty store.
    // Timed before and after the measured loop.
    let mut build_ms = Vec::new();
    let mut set_up = |tracer: &mut Tracer| {
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        let open = tracer.enter("build", 0);
        let build_start = Instant::now();
        let sims = Sims::build();
        build_ms.push(ms(build_start.elapsed()));
        tracer.exit(open);
        let store = CacheStore::new(&dir).expect("create the certificate store");
        (start.elapsed(), sims, store)
    };
    let mut setup = SetUpTimes::default();
    let mut kept = None;
    reset_peak_rss();
    setup.sample(|| {
        let (took, sims, store) = set_up(&mut tracer);
        kept = Some((sims, store));
        took
    });
    let (sims, store) = kept.expect("at least one set-up");
    let setup_rss = peak_rss_mib();

    let mut first: Vec<Option<CachedOutcome>> = vec![None; FAMILIES.len()];
    let (mut cold_ms, mut warm_ms, mut pass_rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut family_ms = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut cert_bytes = 0;
    let mut layers = Layers::default();
    let (mut certify_ns, mut selfcheck_ns, mut replay_ns) = (0i128, 0u64, 0u64);
    let (mut warm_states, mut warm_hits, mut warm_calls, mut cold_states) =
        (0u64, 0u64, 0u64, 0u64);
    let mut plain_smallest = Vec::new();
    let start = Instant::now();
    let mut pass = 0u64;
    let mut off = Tracer::off();
    loop {
        let traced = o.trace && pass % 2 == 1;
        let t: &mut Tracer = if traced { &mut tracer } else { &mut off };
        // Every cold pass starts from an empty store.
        let _ = store.clear();
        reset_peak_rss();
        let open = t.enter("pass", pass);
        let cold_start = Instant::now();
        let cold = run_pass(&sims, &store, t, pass, Mode::Cached);
        let cold_took = ms(cold_start.elapsed());
        let bytes = store_bytes(&dir);
        let warm_start = Instant::now();
        let warm = run_pass(&sims, &store, t, pass, Mode::Cached);
        let warm_took = ms(warm_start.elapsed());
        t.exit(open);
        for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
            report.tally(check_cold(c, &mut first[i]));
            report.tally(check_warm(w, c));
        }
        if cert_bytes != 0 && bytes != cert_bytes {
            report.tally(Err(format!(
                "store held {bytes} bytes, first pass {cert_bytes}"
            )));
        }
        cert_bytes = bytes;
        if traced {
            traced_ms.push(cold_took + warm_took);
            // Certificate emission cost: the same explorations without
            // certify, uninstrumented, then instrumented for the explorer
            // layers.
            let baseline = run_pass(&sims, &store, &mut tracer, pass, Mode::Plain);
            run_pass(
                &sims,
                &store,
                &mut off,
                pass,
                Mode::Instrumented(&mut layers),
            );
            let smallest = baseline
                .iter()
                .filter_map(|c| c.result.as_ref().ok().map(|r| (r.states, c.wall)))
                .min();
            if let Some((_, wall)) = smallest {
                plain_smallest.push(ms(wall));
            }
            for ((c, w), p) in cold.iter().zip(&warm).zip(&baseline) {
                if let (Ok(co), Ok(wo)) = (&c.result, &w.result) {
                    certify_ns += co.elapsed.as_nanos() as i128 - p.wall.as_nanos() as i128;
                    selfcheck_ns += (c.wall.saturating_sub(co.elapsed)).as_nanos() as u64;
                    replay_ns += wo.elapsed.as_nanos() as u64;
                    warm_states += wo.states;
                    cold_states += co.states;
                    warm_hits += u64::from(wo.warm);
                }
                warm_calls += 1;
            }
        } else {
            untraced_ms.push(cold_took + warm_took);
            cold_ms.push(cold_took);
            warm_ms.push(warm_took);
            family_ms.extend(cold.iter().map(|c| ms(c.wall)));
            pass_rss.push(peak_rss_mib());
        }
        pass += 1;
        let elapsed = start.elapsed().as_secs_f64();
        let enough = elapsed >= o.seconds
            && (o.trace || family_ms.len() >= FAMILY_MIN_SAMPLES)
            && (!o.trace || !traced_ms.is_empty());
        if enough || elapsed > 120.0 {
            break;
        }
    }
    setup.sample(|| set_up(&mut tracer).0);
    let setup = setup.fastest();
    let _ = std::fs::remove_dir_all(&dir);

    // A pass is too few results per run for a tail, and the slowest pass
    // moved by 30% between runs of identical code; the tail is over the
    // families' cold calls instead.
    let tail = match percentile(&family_ms, 90) {
        Ok(p90) => p90,
        Err(_) if o.trace => max(&family_ms),
        Err(e) => {
            report.tally(Err(format!("cold family p90: {e}")));
            max(&family_ms)
        }
    };
    report.e2e.set("setup_s", setup);
    report.e2e.set("latency_ms_p50", median(&cold_ms));
    report.e2e.set("latency_ms_tail", tail);
    report.named.push(("cold_family_ms_p90", tail, "ms"));
    report.e2e.set(
        "rate_per_s",
        FAMILIES.len() as f64 / (median(&warm_ms) / 1e3),
    );
    report.e2e.set("peak_rss_mib", median(&pass_rss));
    report.named.push(("setup_s", setup, "s"));
    report.named.push(("cold_ms", median(&cold_ms), "ms"));
    report.named.push(("warm_ms", median(&warm_ms), "ms"));
    report
        .named
        .push(("cert_bytes", cert_bytes as f64, "bytes"));
    report
        .named
        .push(("peak_rss_mib", median(&pass_rss), "MiB"));
    report.named.push((
        "failed_ratio",
        report.failed as f64 / report.attempted as f64,
        "ratio",
    ));
    report.samples.push(("passes", cold_ms.len() as u64));
    report.pass_ms.clone_from(&untraced_ms);

    if o.trace {
        let passes = traced_ms.len() as f64;
        sim_layers(
            &mut report,
            &layers,
            &tracer,
            passes,
            if plain_smallest.is_empty() {
                0.0
            } else {
                median(&plain_smallest)
            },
        );
        let per_pass = |ns: f64| ns / 1e6 / passes;
        let l = &mut report.layers;
        l.set("build.sim_ms", median(&build_ms));
        l.set("cache.certify_ms", per_pass(certify_ns as f64));
        l.set("cache.selfcheck_ms", per_pass(selfcheck_ns as f64));
        l.set("cache.replay_ms", per_pass(replay_ns as f64));
        l.set(
            "cache.replay_states_per_s",
            if replay_ns == 0 {
                0.0
            } else {
                warm_states as f64 / (replay_ns as f64 / 1e9)
            },
        );
        l.set(
            "cache.bytes_per_state",
            cert_bytes as f64 / (cold_states as f64 / passes).max(1.0),
        );
        l.set(
            "cache.warm_hit_ratio",
            warm_hits as f64 / warm_calls.max(1) as f64,
        );
        l.set("cache.cert_bytes", cert_bytes as f64);
        l.set("mem.setup_rss_mib", setup_rss);
        l.set(
            "trace.overhead_pct",
            (median(&traced_ms) / median(&untraced_ms) - 1.0) * 100.0,
        );
        zero_layers(&mut report, &["runtime."]);
    }
    (report, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_pass_certifies_and_warm_pass_replays_every_family() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("test-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CacheStore::new(&dir).unwrap();
        let sims = Sims::build();
        let mut off = Tracer::off();
        let cold = run_pass(&sims, &store, &mut off, 0, Mode::Cached);
        let warm = run_pass(&sims, &store, &mut off, 0, Mode::Cached);
        assert_eq!(cold.len(), FAMILIES.len());
        for (c, w) in cold.iter().zip(&warm) {
            check_cold(c, &mut None).unwrap();
            check_warm(w, c).unwrap();
        }
        assert!(store_bytes(&dir) > 0);
        // A second cold pass against the populated store replays, which
        // the check must refuse as a cold result.
        let again = run_pass(&sims, &store, &mut off, 1, Mode::Cached);
        assert!(check_cold(&again[0], &mut None).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
