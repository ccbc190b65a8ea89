//! The anonreg benchmark: time to a verdict, cached re-verification and
//! runtime acquire latency, end to end and by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `verify_small`, `explore_large`, `reverify_cached`,
//! `runtime_mutex` (see the README beside this file). The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it is a record
//! with the run stamp and the workload's metrics under their own names.
//! The traced run writes its spans as JSON Lines under the build
//! directory and names the file on that record.

mod cached;
mod oracle;
mod report;
mod runtime;
mod sim_workloads;
mod stats;
mod sys;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use anonreg_obs::Json;

use crate::sim_workloads::Which;
use crate::trace::Tracer;

/// Set-up bursts on each side of the measured loop, each on a fresh
/// thread.
pub const SETUP_BURSTS: usize = 20;
/// Set-ups per burst.
pub const SETUP_REPS: usize = 25;
/// Pause between set-up bursts, so that each side samples the host over
/// two seconds rather than one instant.
pub const SETUP_PAUSE: Duration = Duration::from_millis(100);
/// Spans kept by a single-threaded traced run.
pub const SPAN_CAP: usize = 1 << 20;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "verify_small",
    "explore_large",
    "reverify_cached",
    "runtime_mutex",
];

/// Parsed command line plus the run's clock and scratch directory.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where the run may write (under the build directory).
    pub workdir: PathBuf,
    /// Zero of every span timestamp.
    pub epoch: Instant,
}

/// The set-up times of a run: the median of each burst.
///
/// These set-ups take microseconds. On the shared development host the
/// same code ran at one of two speeds, about 1.5x apart, that changed
/// over seconds to minutes, so the median of all set-ups of a run
/// differed by up to 1.7x between runs. Interference only ever adds
/// time, so `setup_s` is the median of the fastest burst, and work added
/// to the set-up raises it like every other burst's. Each workload
/// samples before and after its measured loop, about 20 s apart: in some
/// runs the host stayed in its slower state for all of a 4 s sampling
/// window. Bursts after the loop can run slower (after an
/// `explore_large` pass had freed a gigabyte, up to twice as slow); the
/// fastest burst passes over them. Set-ups run on fresh threads: timed
/// on the long-lived main thread they settled into one speed per
/// process.
#[derive(Default)]
pub struct SetUpTimes(Vec<f64>);

impl SetUpTimes {
    /// Runs `once`, which returns how long its timed part took,
    /// [`SETUP_REPS`] times on each of [`SETUP_BURSTS`] fresh threads
    /// [`SETUP_PAUSE`] apart.
    pub fn sample(&mut self, mut once: impl FnMut() -> Duration + Send) {
        for burst in 0..SETUP_BURSTS {
            if burst > 0 {
                std::thread::sleep(SETUP_PAUSE);
            }
            let times: Vec<f64> = std::thread::scope(|s| {
                s.spawn(|| (0..SETUP_REPS).map(|_| once().as_secs_f64()).collect())
                    .join()
                    .expect("a set-up thread panicked")
            });
            self.0.push(stats::median(&times));
        }
    }

    /// `setup_s`: the median of the fastest burst, in seconds.
    #[must_use]
    pub fn fastest(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Milliseconds of a duration.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    // Scratch space sits beside the executable, under the build
    // directory, so the run writes only inside its checkout.
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let workdir = exe
        .parent()
        .and_then(std::path::Path::parent)
        .ok_or("the executable has no build directory")?
        .join("perfbench-work");
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workdir,
        epoch: Instant::now(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("ANONREG_NO_CACHE").is_some() {
        eprintln!("perfbench: unset ANONREG_NO_CACHE; reverify_cached measures the cache");
        return ExitCode::from(2);
    }
    let (workers, max_states) = match o.workload.as_str() {
        "verify_small" | "explore_large" => (sim_workloads::WORKERS, verify::CHECK_MAX_STATES),
        "reverify_cached" => (cached::WORKERS, cached::MAX_STATES),
        _ => (0, 0),
    };
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let stamp = sys::Stamp::new(&cwd, o.seed, workers, max_states, o.trace).json();

    let (mut report, tracers): (report::Report, Vec<Tracer>) = match o.workload.as_str() {
        "verify_small" => {
            let (r, t) = sim_workloads::run(&o, Which::Small);
            (r, vec![t])
        }
        "explore_large" => {
            let (r, t) = sim_workloads::run(&o, Which::Large);
            (r, vec![t])
        }
        "reverify_cached" => {
            let (r, t) = cached::run(&o);
            (r, vec![t])
        }
        _ => runtime::run(&o),
    };
    report.failed = report.failed.min(report.attempted);
    for why in &report.failures {
        eprintln!("perfbench: FAILED {why}");
    }

    let mut record = vec![
        ("record", Json::Str("workload".into())),
        ("workload", Json::Str(o.workload.clone())),
        ("stamp", stamp.clone()),
        (
            "metrics",
            Json::Obj(
                report
                    .named
                    .iter()
                    .map(|&(name, value, unit)| {
                        (
                            name.to_string(),
                            Json::obj(vec![
                                ("value", Json::F64(value)),
                                ("unit", Json::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "samples",
            Json::Obj(
                report
                    .samples
                    .iter()
                    .map(|&(name, n)| (name.to_string(), Json::U64(n)))
                    .collect(),
            ),
        ),
        (
            "pass_ms",
            Json::Arr(report.pass_ms.iter().map(|&v| Json::F64(v)).collect()),
        ),
    ];
    if o.trace {
        let path = o
            .workdir
            .join(format!("trace-{}-{}.jsonl", o.workload, o.seed));
        let refs: Vec<&Tracer> = tracers.iter().collect();
        match trace::write_jsonl(&path, &stamp, &refs) {
            Ok(()) => record.push(("trace_file", Json::Str(path.display().to_string()))),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!("{}", Json::obj(record).render());
    println!("{}", report.result_line(o.trace).render());
    ExitCode::SUCCESS
}
