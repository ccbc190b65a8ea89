//! Process memory and the run stamp, with the standard library only.

use std::path::Path;
use std::process::Command;

use anonreg_obs::Json;

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set size of this process since start or the last
/// [`reset_peak_rss`], in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Resets `VmHWM` to the current resident set size, so the next
/// [`peak_rss_mib`] reads the peak of what ran in between. Returns
/// `false` where the kernel refuses, in which case peaks are
/// cumulative over the process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn first_line_of(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// What every output record carries, so a figure can be traced to the
/// host, toolchain, source and settings that produced it.
#[derive(Clone, Debug)]
pub struct Stamp {
    /// Available hardware threads.
    pub nproc: usize,
    /// `rustc -V` (the compiler on `PATH`, which cargo built with).
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `"unknown"` outside git.
    pub git_rev: String,
    /// The workload's seed.
    pub seed: u64,
    /// Explorer workers (0 where no explorer runs).
    pub workers: usize,
    /// Explorer state cap (0 where no explorer runs).
    pub max_states: usize,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Stamp {
    /// Stamps a run of `workload` started in `dir`.
    #[must_use]
    pub fn new(dir: &Path, seed: u64, workers: usize, max_states: usize, trace: bool) -> Self {
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc: first_line_of("rustc", &["-V"], dir).unwrap_or_else(|| "unknown".into()),
            git_rev: first_line_of("git", &["rev-parse", "HEAD"], dir)
                .unwrap_or_else(|| "unknown".into()),
            seed,
            workers,
            max_states,
            trace,
        }
    }

    /// The stamp as a JSON object.
    #[must_use]
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::U64(self.nproc as u64)),
            ("rustc", Json::Str(self.rustc.clone())),
            ("git_rev", Json::Str(self.git_rev.clone())),
            ("seed", Json::U64(self.seed)),
            ("workers", Json::U64(self.workers as u64)),
            ("max_states", Json::U64(self.max_states as u64)),
            ("trace", Json::Bool(self.trace)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_a_positive_size() {
        // Other tests run on parallel threads of this process, so only
        // the reading itself is checked here, not how a reset moves it.
        assert!(peak_rss_mib() > 0.0);
    }
}
