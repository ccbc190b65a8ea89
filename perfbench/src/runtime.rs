//! `runtime_mutex`: `AnonymousMutex::new(3)` with two threads, each in a
//! closed loop of acquire, a minimal critical section, release.
//!
//! The critical section checks mutual exclusion directly: a flag that a
//! second thread would find already set, and a counter updated with a
//! plain load and store, which loses increments if two threads are ever
//! inside together.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use anonreg::mutex::{AnonMutex, MutexEvent};
use anonreg::{Pid, View};
use anonreg_obs::{Phase, Profiler};
use anonreg_runtime::{
    AnonymousMemory, AnonymousMutex, Backoff, Driver, MutexHandle, PackedAtomicRegister,
};

use crate::report::Report;
use crate::sim_workloads::zero_layers;
use crate::stats::Histogram;
use crate::sys::{peak_rss_mib, reset_peak_rss};
use crate::trace::Tracer;
use crate::verify::phase_self_ns;
use crate::{Opts, SetUpTimes};

/// Registers of the lock.
const M: usize = 3;
/// Threads racing for it (the lock admits two).
const THREADS: usize = 2;
/// Spans a traced thread can hold in one window.
const THREAD_SPAN_CAP: usize = 1 << 18;
/// Spans one traced acquire records.
const SPANS_PER_ACQUIRE: usize = 4;
/// Seconds per measurement window.
const WINDOW_S: f64 = 1.0;
/// Seconds per window of the traced run. At about 0.7 million acquires
/// per second per thread on the development host, a window fills about
/// half of [`THREAD_SPAN_CAP`]; a traced window whose buffer fills ends
/// early, so every acquire in it is recorded.
const TRACED_WINDOW_S: f64 = 0.05;
/// Critical-section entries per process in the driver-profile run.
const PROFILE_ENTRIES: u64 = 20_000;

/// What one thread measured in one window.
#[derive(Default)]
struct ThreadOut {
    acquires: u64,
    violations: u64,
    enter: Histogram,
    exit: Histogram,
    ops: u64,
    /// Nanoseconds from the start barrier to leaving the loop.
    loop_ns: u64,
    /// Nanoseconds spent recording spans (traced windows only).
    record_ns: u64,
}

/// Shared state of one window.
struct Shared {
    start: Barrier,
    stop: AtomicBool,
    inside: AtomicBool,
    counter: AtomicU64,
}

fn since_ns(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).expect("fits in u64")
}

/// One thread's closed loop until `stop`.
fn worker(
    handle: &mut MutexHandle,
    shared: &Shared,
    tracer: &mut Tracer,
    thread: u64,
) -> ThreadOut {
    let mut out = ThreadOut::default();
    let ops_before = handle.ops();
    let traced = tracer.enabled();
    shared.start.wait();
    let loop_start = Instant::now();
    while !shared.stop.load(Ordering::Relaxed) {
        // End the window before a span would be dropped.
        if tracer.room() < SPANS_PER_ACQUIRE {
            shared.stop.store(true, Ordering::Relaxed);
            break;
        }
        let t0 = Instant::now();
        let guard = handle.enter();
        let t1 = Instant::now();
        // The critical section. SeqCst: the flag itself is the check.
        if shared.inside.swap(true, Ordering::SeqCst) {
            out.violations += 1;
        }
        let c = shared.counter.load(Ordering::Relaxed);
        shared.counter.store(c + 1, Ordering::Relaxed);
        shared.inside.store(false, Ordering::SeqCst);
        let t2 = Instant::now();
        drop(guard);
        let t3 = Instant::now();
        // Spans are recorded after the acquire, from its own timestamps.
        let group = (thread << 48) | out.acquires;
        let acquire = tracer.enter_at("acquire", group, t0);
        tracer.record("enter", group, t0, t1);
        tracer.record("critical", group, t1, t2);
        tracer.record("guard_drop", group, t2, t3);
        tracer.exit_at(acquire, t3);
        if traced {
            out.record_ns += since_ns(t3, Instant::now());
        }
        out.enter.record(since_ns(t0, t1));
        out.exit.record(since_ns(t2, t3));
        out.acquires += 1;
    }
    out.loop_ns = since_ns(loop_start, Instant::now());
    out.ops = handle.ops() - ops_before;
    out
}

/// Creates the lock and two handles and spawns two threads: the set-up.
/// How soon the scheduler first runs the threads is not set-up work, so
/// the clock stops at the last spawn, before the start barrier. Runs one
/// window of at most `secs` seconds when `secs > 0`; a thread whose
/// tracer is full ends it early.
fn window(secs: f64, tracers: &mut [Tracer]) -> (Duration, Vec<ThreadOut>, u64, Duration) {
    let setup_start = Instant::now();
    let lock = AnonymousMutex::new(M).expect("3 is odd and at least 3");
    let shared = Shared {
        start: Barrier::new(THREADS + 1),
        stop: AtomicBool::new(false),
        inside: AtomicBool::new(false),
        counter: AtomicU64::new(0),
    };
    let mut handles: Vec<MutexHandle> = (0..THREADS as u64)
        .map(|i| {
            lock.handle(Pid::new(i + 1).expect("1-based"))
                .expect("two handles")
        })
        .collect();
    std::thread::scope(|s| {
        let joins: Vec<_> = handles
            .iter_mut()
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(i, (h, t))| {
                let shared = &shared;
                s.spawn(move || worker(h, shared, t, i as u64))
            })
            .collect();
        let setup = setup_start.elapsed();
        shared.start.wait();
        let run_start = Instant::now();
        while run_start.elapsed().as_secs_f64() < secs && !shared.stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(5));
        }
        shared.stop.store(true, Ordering::Relaxed);
        let outs: Vec<ThreadOut> = joins
            .into_iter()
            .map(|j| j.join().expect("a benchmark thread panicked"))
            .collect();
        let measured = run_start.elapsed();
        (setup, outs, shared.counter.load(Ordering::SeqCst), measured)
    })
}

fn mutex_phase(event: &MutexEvent) -> Option<Phase> {
    match event {
        MutexEvent::Enter => Some(Phase::Critical),
        MutexEvent::Exit | MutexEvent::Aborted => Some(Phase::Doorway),
    }
}

/// The driver's own doorway/waiting/critical split on the same m = 3
/// machine pair, with the backoff E18 profiles. Returns phase name to
/// self nanoseconds, and the entries completed.
fn driver_profile() -> (BTreeMap<String, u64>, u64) {
    let profiler = Arc::new(Profiler::new());
    let mem: AnonymousMemory<PackedAtomicRegister<u64>> = AnonymousMemory::new(M);
    std::thread::scope(|s| {
        for (id, shift) in [(1u64, 0usize), (2, 1)] {
            let view = mem.view(View::rotated(M, shift));
            let profiler = Arc::clone(&profiler);
            s.spawn(move || {
                let machine = AnonMutex::new(Pid::new(id).expect("1-based"), M)
                    .expect("m = 3")
                    .with_cycles(PROFILE_ENTRIES);
                let mut driver = Driver::new(machine, view)
                    .with_backoff(Backoff {
                        min_spins: 1,
                        max_spins: 1 << 10,
                    })
                    .with_profiler(profiler, mutex_phase);
                driver.run_to_halt();
            });
        }
    });
    (phase_self_ns(&profiler), PROFILE_ENTRIES * 2)
}

/// Merged figures of one window.
struct Window {
    acquires: u64,
    enter: Histogram,
    exit: Histogram,
    ops: u64,
    rate: f64,
}

fn tally(report: &mut Report, outs: Vec<ThreadOut>, counter: u64, measured: Duration) -> Window {
    let mut w = Window {
        acquires: 0,
        enter: Histogram::default(),
        exit: Histogram::default(),
        ops: 0,
        rate: 0.0,
    };
    let mut violations = 0;
    for o in outs {
        w.acquires += o.acquires;
        violations += o.violations;
        w.enter.merge(&o.enter);
        w.exit.merge(&o.exit);
        w.ops += o.ops;
    }
    report.attempted += w.acquires;
    report.failed += violations.min(w.acquires);
    if violations > 0 {
        report.failures.push(format!(
            "{violations} acquires found the other thread inside"
        ));
    }
    if counter != w.acquires {
        report.failed += w.acquires.abs_diff(counter).clamp(1, w.acquires.max(1));
        report
            .failures
            .push(format!("counter {counter} after {} acquires", w.acquires));
    }
    w.rate = w.acquires as f64 / measured.as_secs_f64();
    w
}

/// Runs `runtime_mutex`; returns the report and the per-thread tracers.
#[must_use]
pub fn run(o: &Opts) -> (Report, Vec<Tracer>) {
    let mut report = Report::default();
    reset_peak_rss();
    // Set-up: lock, handles, threads spawned, timed on its own before
    // and after measuring. Every window sets up afresh, untimed.
    let set_up = || window(0.0, &mut [Tracer::off(), Tracer::off()]).0;
    let mut setup = SetUpTimes::default();
    setup.sample(set_up);
    let setup_rss = peak_rss_mib();
    let mut off = [Tracer::off(), Tracer::off()];
    let fresh_tracers = || -> Vec<Tracer> {
        (0..THREADS as u32)
            .map(|t| Tracer::on(o.epoch, t, THREAD_SPAN_CAP))
            .collect()
    };
    // The spans written to the trace file: the first traced window's.
    let mut kept: Vec<Tracer> = Vec::new();

    if !o.trace {
        // Back-to-back windows, each with its own lock and threads, pooled
        // into one latency histogram. Pooled percentiles varied half as
        // much between runs as medians of per-window percentiles.
        reset_peak_rss();
        let mut pooled = Histogram::default();
        let (mut acquires, mut windows, mut measured_s) = (0, 0, 0.0);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < o.seconds {
            let (_, outs, counter, measured) = window(WINDOW_S, &mut off);
            let w = tally(&mut report, outs, counter, measured);
            pooled.merge(&w.enter);
            acquires += w.acquires;
            windows += 1;
            measured_s += measured.as_secs_f64();
        }
        let mut us = |p: u32| {
            pooled.percentile(p).unwrap_or_else(|e| {
                report.tally(Err(format!("acquire p{p}: {e}")));
                0.0
            }) / 1e3
        };
        let (p50, p90, p99) = (us(50), us(90), us(99));
        let rate = acquires as f64 / measured_s;
        let rss = peak_rss_mib();
        report.e2e.set("latency_ms_p50", p50 / 1e3);
        report.e2e.set("latency_ms_tail", p90 / 1e3);
        report.e2e.set("rate_per_s", rate);
        report.e2e.set("peak_rss_mib", rss);
        report.named.push(("acquires_per_s", rate, "1/s"));
        report.named.push(("acquire_us_p50", p50, "us"));
        report.named.push(("acquire_us_p90", p90, "us"));
        report.named.push(("acquire_us_p99", p99, "us"));
        report.named.push(("peak_rss_mib", rss, "MiB"));
        report.samples.push(("acquires", acquires));
        report.samples.push(("windows", windows));
    } else {
        // Short traced windows. Each window's spans are folded into the
        // totals and then cleared, so that every acquire is recorded.
        //
        // Tracing slows each thread's loop outside the lock, which
        // lowers contention: traced windows completed about twice the
        // acquires per second of untraced ones on the development host.
        // A throughput ratio would show tracing as a speed-up, so its
        // cost is timed directly instead, as `record_ns`.
        let mut on = fresh_tracers();
        let mut traced = Histogram::default();
        let mut traced_exit = Histogram::default();
        let (mut traced_acquires, mut traced_ops, mut spans) = (0u64, 0u64, 0u64);
        let (mut loop_ns, mut acquire_ns, mut record_ns) = (0u64, 0u64, 0u64);
        let mut windows = 0u64;
        let start = Instant::now();
        while windows == 0 || start.elapsed().as_secs_f64() < o.seconds {
            let (_, outs, counter, measured) = window(TRACED_WINDOW_S, &mut on);
            loop_ns += outs.iter().map(|t| t.loop_ns).sum::<u64>();
            record_ns += outs.iter().map(|t| t.record_ns).sum::<u64>();
            let w = tally(&mut report, outs, counter, measured);
            traced.merge(&w.enter);
            traced_exit.merge(&w.exit);
            traced_acquires += w.acquires;
            traced_ops += w.ops;
            for t in &on {
                spans += t.spans().len() as u64;
                acquire_ns += crate::trace::totals(t.spans())
                    .get("acquire")
                    .map_or(0, |a| a.total_ns);
            }
            if kept.is_empty() {
                kept = std::mem::replace(&mut on, fresh_tracers());
            } else {
                on.iter_mut().for_each(Tracer::clear);
            }
            windows += 1;
        }
        let (phases, entries) = driver_profile();
        let phase_ms = |name: &str| {
            phases
                .get(name)
                .map_or(0.0, |&ns| ns as f64 / 1e6 / (entries as f64 / 1e3))
        };
        let us = |h: &Histogram| h.percentile(50).map_or(0.0, |ns| ns / 1e3);
        let l = &mut report.layers;
        l.set("runtime.enter_us_p50", us(&traced));
        l.set("runtime.exit_us_p50", us(&traced_exit));
        l.set(
            "runtime.ops_per_acquire",
            traced_ops as f64 / traced_acquires.max(1) as f64,
        );
        l.set("runtime.doorway_ms", phase_ms("doorway"));
        l.set("runtime.waiting_ms", phase_ms("waiting"));
        l.set("runtime.critical_ms", phase_ms("critical"));
        l.set("mem.setup_rss_mib", setup_rss);
        // Time spent recording spans, as a share of the rest of the
        // threads' loop time.
        l.set(
            "trace.overhead_pct",
            record_ns as f64 / loop_ns.saturating_sub(record_ns).max(1) as f64 * 100.0,
        );
        // The threads' loop time inside acquire spans (the calls into the
        // lock and the critical section); the rest is the loop itself,
        // the latency histograms and the span recording.
        l.set(
            "trace.coverage",
            if loop_ns == 0 {
                0.0
            } else {
                acquire_ns as f64 / loop_ns as f64
            },
        );
        l.set(
            "trace.unattributed_ms",
            loop_ns.saturating_sub(acquire_ns) as f64 / 1e6 / (traced_acquires.max(1) as f64 / 1e3),
        );
        l.set("trace.spans", spans as f64);
        l.set("build.sim_ms", 0.0);
        zero_layers(&mut report, &["explore.", "analysis.", "canon.", "cache."]);
        report.samples.push(("traced_acquires", traced_acquires));
        report.samples.push(("traced_windows", windows));
    }
    setup.sample(set_up);
    let setup_s = setup.fastest();
    report.e2e.set("setup_s", setup_s);
    report.named.push(("setup_s", setup_s, "s"));
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.named.push(("failed_ratio", failed_ratio, "ratio"));
    (report, kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_window_keeps_mutual_exclusion_and_the_count() {
        let (_, outs, counter, measured) = window(0.2, &mut [Tracer::off(), Tracer::off()]);
        let mut report = Report::default();
        let w = tally(&mut report, outs, counter, measured);
        assert!(w.acquires > 0);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        assert_eq!(counter, w.acquires);
        assert!(w.enter.percentile(50).is_ok());
    }

    #[test]
    fn a_traced_window_ends_before_a_span_is_dropped() {
        let epoch = Instant::now();
        let mut tracers = [Tracer::on(epoch, 0, 4000), Tracer::on(epoch, 1, 4000)];
        let (_, outs, counter, measured) = window(30.0, &mut tracers);
        assert!(
            measured < Duration::from_secs(30),
            "the full buffer ends it"
        );
        let mut report = Report::default();
        let w = tally(&mut report, outs, counter, measured);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        let recorded: usize = tracers.iter().map(|t| t.spans().len()).sum();
        assert_eq!(recorded as u64, w.acquires * SPANS_PER_ACQUIRE as u64);
        assert!(tracers.iter().all(|t| t.dropped() == 0));
    }

    #[test]
    fn the_driver_profile_splits_into_phases() {
        let (phases, entries) = driver_profile();
        assert_eq!(entries, 2 * PROFILE_ENTRIES);
        for name in ["doorway", "critical"] {
            assert!(phases.get(name).is_some_and(|&ns| ns > 0), "{phases:?}");
        }
    }
}
