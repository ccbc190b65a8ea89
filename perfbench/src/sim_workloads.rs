//! `verify_small` and `explore_large`: closed loops over instance lists,
//! each instance verified to all of its verdicts, the next one started
//! when the previous one finishes.

use std::time::Instant;

use crate::oracle;
use crate::report::Report;
use crate::stats::{max, median, percentile};
use crate::sys::{peak_rss_mib, reset_peak_rss};
use crate::trace::{coverage, totals, Tracer};
use crate::verify::{self, Built, Cfg, Ctx, Instance, Layers, Outcome};
use crate::{ms, Opts, SetUpTimes, SPAN_CAP};

/// Explorer workers for both workloads (the benchmark host has 2 cores).
pub const WORKERS: usize = 2;

/// Samples `verify_small` needs so its p90 leaves ten beyond it.
const SMALL_MIN_SAMPLES: usize = 100;

/// A run stops measuring here even if it has not reached its sample
/// count, so it always ends within the time limit.
const HARD_STOP_S: f64 = 120.0;

/// The explorer settings both workloads run at.
pub const CFG: Cfg = Cfg {
    workers: WORKERS,
    max_states: verify::CHECK_MAX_STATES,
};

fn check_outcome(
    inst: &Instance,
    result: Result<Outcome, anonreg_sim::prelude::ExploreError>,
    first: &mut Option<Outcome>,
) -> Result<(), String> {
    let out = result.map_err(|e| format!("{}: {e}", inst.label()))?;
    oracle::check(inst.shape(), &out.verdicts)?;
    match first {
        None => *first = Some(out),
        Some(prev) if *prev != out => {
            return Err(format!(
                "{}: pass gave {} states {} edges {:?}, first pass {} {} {:?}",
                inst.label(),
                out.states,
                out.edges,
                out.verdicts,
                prev.states,
                prev.edges,
                prev.verdicts
            ));
        }
        Some(_) => {}
    }
    Ok(())
}

/// Which of the two loops is running.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// Per-instance latency over a seeded list of small instances.
    Small,
    /// Both large instances per pass.
    Large,
}

/// Runs `verify_small` or `explore_large`; returns the report and the
/// tracer holding the run's spans.
#[must_use]
pub fn run(o: &Opts, which: Which) -> (Report, Tracer) {
    let draw = || match which {
        Which::Small => verify::draw_small(o.seed),
        Which::Large => {
            let mut list = verify::large();
            if o.seed % 2 == 1 {
                list.reverse();
            }
            list
        }
    };
    let mut report = Report::default();
    let mut traced = Ctx {
        tracer: if o.trace {
            Tracer::on(o.epoch, 0, SPAN_CAP)
        } else {
            Tracer::off()
        },
        layers: o.trace.then(Layers::default),
    };
    let mut untraced = Ctx::untraced();

    // Set-up: draw the instances and build their simulations. It is
    // timed before and after the measured loop.
    let mut build_ms = Vec::new();
    let mut set_up = |tracer: &mut Tracer| {
        let start = Instant::now();
        let list = draw();
        let build_start = Instant::now();
        let built: Vec<Built> = list
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let open = tracer.enter("build", i as u64);
                let b = verify::build(inst);
                tracer.exit(open);
                b
            })
            .collect();
        build_ms.push(ms(build_start.elapsed()));
        (start.elapsed(), list, built)
    };
    let mut setup = SetUpTimes::default();
    let mut kept = None;
    reset_peak_rss();
    setup.sample(|| {
        let (took, list, built) = set_up(&mut traced.tracer);
        kept = Some((list, built));
        took
    });
    let (list, built) = kept.expect("at least one set-up");
    let setup_rss = peak_rss_mib();
    let n = list.len();

    let mut first: Vec<Option<Outcome>> = vec![None; n];
    let mut latency_ms = Vec::new();
    let mut pass_ms = Vec::new();
    let mut traced_pass_ms = Vec::new();
    let mut pass_rss = Vec::new();
    let start = Instant::now();
    let mut pass = 0u64;
    loop {
        let is_traced = o.trace && pass % 2 == 1;
        let ctx = if is_traced {
            &mut traced
        } else {
            &mut untraced
        };
        reset_peak_rss();
        let open = ctx.tracer.enter("pass", pass);
        let pass_start = Instant::now();
        for (i, (inst, b)) in list.iter().zip(&built).enumerate() {
            let t = Instant::now();
            let result = verify::verify(inst, b, CFG, ctx, pass * n as u64 + i as u64);
            if !is_traced {
                latency_ms.push(ms(t.elapsed()));
            }
            report.tally(check_outcome(inst, result, &mut first[i]));
        }
        let took = ms(pass_start.elapsed());
        ctx.tracer.exit(open);
        if is_traced {
            traced_pass_ms.push(took);
        } else {
            pass_ms.push(took);
            pass_rss.push(peak_rss_mib());
        }
        pass += 1;
        let elapsed = start.elapsed().as_secs_f64();
        let enough = elapsed >= o.seconds
            && (which == Which::Large || o.trace || latency_ms.len() >= SMALL_MIN_SAMPLES)
            && (!o.trace || !traced_pass_ms.is_empty());
        if enough || elapsed > HARD_STOP_S {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    report.pass_ms.clone_from(&pass_ms);
    setup.sample(|| set_up(&mut traced.tracer).0);
    let setup_s = setup.fastest();

    let states_per_pass: usize = first.iter().flatten().map(|out| out.states).sum();
    report.e2e.set("setup_s", setup_s);
    report.e2e.set("peak_rss_mib", median(&pass_rss));
    report.named.push(("setup_s", setup_s, "s"));
    report
        .named
        .push(("peak_rss_mib", median(&pass_rss), "MiB"));
    match which {
        Which::Small => {
            let p50 = median(&latency_ms);
            let p90 = match percentile(&latency_ms, 90) {
                Ok(p90) => p90,
                // The traced run reports no end-to-end figures and runs
                // too few untraced instances for a tail.
                Err(_) if o.trace => max(&latency_ms),
                Err(e) => {
                    report.tally(Err(format!("verdict_ms_p90: {e}")));
                    max(&latency_ms)
                }
            };
            report.e2e.set("latency_ms_p50", p50);
            report.e2e.set("latency_ms_tail", p90);
            report
                .e2e
                .set("rate_per_s", report.attempted as f64 / measured_s);
            report.named.push(("verdict_ms_p50", p50, "ms"));
            report.named.push(("verdict_ms_p90", p90, "ms"));
            report.samples.push(("verdict_ms", latency_ms.len() as u64));
        }
        Which::Large => {
            let p50 = median(&pass_ms);
            report.e2e.set("latency_ms_p50", p50);
            report.e2e.set("latency_ms_tail", max(&pass_ms));
            report
                .e2e
                .set("rate_per_s", states_per_pass as f64 / (p50 / 1e3));
            report.named.push(("verdict_s", p50 / 1e3, "s"));
            report.samples.push(("verdict_s", pass_ms.len() as u64));
        }
    }
    report.named.push((
        "failed_ratio",
        report.failed as f64 / report.attempted as f64,
        "ratio",
    ));

    if let Some(layers) = traced.layers.take() {
        let smallest = first
            .iter()
            .enumerate()
            .filter_map(|(i, out)| out.as_ref().map(|o| (o.states, i)))
            .min()
            .map_or(0, |(_, i)| i);
        let fixed: Vec<f64> = traced
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == "explore" && s.group % n as u64 == smallest as u64)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        sim_layers(
            &mut report,
            &layers,
            &traced.tracer,
            traced_pass_ms.len() as f64,
            if fixed.is_empty() {
                0.0
            } else {
                median(&fixed)
            },
        );
        report.layers.set("build.sim_ms", median(&build_ms));
        report.layers.set("mem.setup_rss_mib", setup_rss);
        report.layers.set(
            "trace.overhead_pct",
            (median(&traced_pass_ms) / median(&pass_ms) - 1.0) * 100.0,
        );
        zero_layers(&mut report, &["cache.", "runtime."]);
    }
    (report, traced.tracer)
}

/// Per-pass figures of the simulator layers, from the accumulated
/// probe/profiler counts and the span totals.
pub fn sim_layers(
    report: &mut Report,
    layers: &Layers,
    tracer: &Tracer,
    passes: f64,
    fixed_ms: f64,
) {
    let per_pass_ms = |ns: u64| ns as f64 / 1e6 / passes;
    let phase = |name: &str| layers.phase_ns.get(name).copied().unwrap_or(0);
    let phases: u64 = layers.phase_ns.values().sum();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let span = totals(tracer.spans());
    let span_ms = |names: &[&str]| {
        per_pass_ms(
            names
                .iter()
                .filter_map(|n| span.get(n))
                .map(|t| t.total_ns)
                .sum(),
        )
    };
    let l = &mut report.layers;
    l.set("explore.wall_ms", per_pass_ms(layers.explore_wall_ns));
    l.set("explore.fixed_ms", fixed_ms);
    l.set(
        "explore.unattributed_ms",
        per_pass_ms(layers.worker_wall_ns.saturating_sub(phases)),
    );
    for (metric, name) in [
        ("explore.step_ms", "step"),
        ("explore.canon_ms", "canon"),
        ("explore.dedup_ms", "dedup"),
        ("explore.steal_ms", "steal"),
        ("explore.idle_ms", "idle"),
    ] {
        l.set(metric, per_pass_ms(phase(name)));
    }
    l.set("explore.states", layers.states as f64 / passes);
    l.set("explore.edges", layers.edges as f64 / passes);
    l.set(
        "explore.states_per_s",
        ratio(layers.states, layers.explore_wall_ns) * 1e9,
    );
    l.set("explore.dedup_ratio", ratio(layers.dedup, layers.edges));
    l.set(
        "explore.bloom_neg_ratio",
        ratio(layers.bloom_neg, layers.edges),
    );
    l.set("explore.steals", layers.steals as f64 / passes);
    l.set("explore.graph_drop_ms", span_ms(&["graph_drop"]));
    l.set("analysis.safety_ms", span_ms(&["safety"]));
    l.set("analysis.scc_ms", span_ms(&["livelock", "starvation"]));
    l.set("analysis.renaming_replay_ms", span_ms(&["renaming_replay"]));
    l.set("analysis.election_replay_ms", span_ms(&["election_replay"]));
    l.set("analysis.obstruction_ms", span_ms(&["obstruction"]));
    l.set("analysis.solo_runs", layers.solo_runs as f64 / passes);
    l.set("analysis.solo_ops_max", layers.solo_ops_max as f64);
    l.set(
        "canon.ns_per_state",
        ratio(layers.canon_ns, layers.canon_states),
    );
    l.set(
        "canon.code_bytes",
        ratio(layers.canon_bytes, layers.canon_states),
    );
    pass_coverage(report, tracer, passes);
}

/// The spans that time a call into a layer. The benchmark's own wrappers
/// (`pass`, `verify`) are not among them.
pub const LAYER_SPANS: [&str; 11] = [
    "build",
    "explore",
    "canon_sample",
    "graph_drop",
    "safety",
    "livelock",
    "starvation",
    "obstruction",
    "renaming_replay",
    "election_replay",
    "run_cached",
];

/// Span coverage of the traced passes: the share of their wall time
/// spent inside layer calls, and the rest per pass (the benchmark's own
/// work between calls, such as cloning a simulation or dropping a
/// finished graph).
fn pass_coverage(report: &mut Report, tracer: &Tracer, passes: f64) {
    let (pass_ns, covered_ns) = coverage(tracer.spans(), "pass", &LAYER_SPANS);
    let l = &mut report.layers;
    l.set(
        "trace.coverage",
        if pass_ns == 0 {
            0.0
        } else {
            covered_ns as f64 / pass_ns as f64
        },
    );
    l.set(
        "trace.unattributed_ms",
        pass_ns.saturating_sub(covered_ns) as f64 / 1e6 / passes,
    );
    l.set("trace.spans", tracer.spans().len() as f64);
}

/// Sets every declared per-layer metric under the given prefixes that
/// the workload left unset to 0: those layers are not on its path.
pub fn zero_layers(report: &mut Report, prefixes: &[&str]) {
    for &(name, _) in &crate::report::PER_LAYER {
        if prefixes.iter().any(|p| name.starts_with(p)) && report.layers.get(name).is_none() {
            report.layers.set(name, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A verdict flipped against the oracle, or one that changes between
    /// passes, fails the run: `correct` turns false.
    #[test]
    fn a_flipped_verdict_fails_the_run() {
        let inst = verify::draw_small(2)
            .into_iter()
            .find(|i| matches!(i.kind, verify::Kind::Consensus { registers: 3, .. }))
            .unwrap();
        let cfg = Cfg {
            workers: 1,
            max_states: 200_000,
        };
        let verified =
            || verify::verify(&inst, &verify::build(&inst), cfg, &mut Ctx::untraced(), 0);
        let mut report = Report::default();
        let mut first = None;
        report.tally(check_outcome(&inst, verified(), &mut first));
        report.tally(check_outcome(&inst, verified(), &mut first));
        assert_eq!((report.attempted, report.failed), (2, 0));

        let mut flipped = verified().unwrap();
        flipped.verdicts[0].1 = !flipped.verdicts[0].1;
        report.tally(check_outcome(&inst, Ok(flipped), &mut None));
        let mut recounted = verified().unwrap();
        recounted.states += 1;
        report.tally(check_outcome(&inst, Ok(recounted), &mut first));
        assert_eq!((report.attempted, report.failed), (4, 2));
        for &(name, _) in &crate::report::END_TO_END {
            report.e2e.set(name, 1.0);
        }
        let line = report.result_line(false);
        assert_eq!(line.get("correct"), Some(&anonreg_obs::Json::Bool(false)));
    }
}
