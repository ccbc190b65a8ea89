//! Proof-carrying exploration: certificate emission and the cached-run
//! driver.
//!
//! [`Explorer::certify`](super::Explorer::certify) makes a finished run
//! durable — the reachable set, the edge multiset and the named verdicts
//! land in an `anonreg-cache` certificate keyed by the problem's
//! [`structural hash`](super::Explorer::structural_hash). The glue here
//! turns that into an incremental-verification workflow:
//!
//! * [`write_graph`] serializes a [`StateGraph`] into the certificate
//!   format (canonical-code sort gives every state a stable index, so
//!   certificates from race-ordered multi-worker runs are
//!   byte-comparable to one-worker ones).
//! * [`run_cached`] is the warm/cold driver: replay the stored
//!   certificate when a valid one exists, otherwise explore cold,
//!   certify, and replay the fresh certificate once as an emission
//!   self-check. The `ANONREG_NO_CACHE` escape hatch
//!   ([`anonreg_cache::cache_disabled`]) forces cold runs while still
//!   refreshing the store.

use std::hash::Hash;
use std::time::{Duration, Instant};

use anonreg_cache::{CacheStore, CertError, CertWriter};
use anonreg_model::fingerprint::Fp128;
use anonreg_model::Machine;
use anonreg_obs::Probe;

use crate::canon::StateEncoder;

use super::{ExploreError, Explorer, StateGraph};

/// A named verdict predicate evaluated on the finished graph.
pub(crate) type VerdictFn<M> = Box<dyn Fn(&StateGraph<M>) -> bool>;

/// What [`Explorer::replay_certificate`](super::Explorer::replay_certificate)
/// re-validated, plus how long the streaming pass took.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayReport {
    /// Distinct states in the certified reachable set.
    pub states: u64,
    /// Transitions in the certified edge multiset.
    pub edges: u64,
    /// The named verdicts pinned by the certificate, in recorded order.
    pub verdicts: Vec<(String, bool)>,
    /// Wall-clock duration of the replay pass.
    pub elapsed: Duration,
}

/// The result of [`run_cached`]: either a warm replay or a cold
/// explore-and-certify, normalized to the same shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedOutcome {
    /// `true` when a stored certificate was replayed instead of
    /// exploring.
    pub warm: bool,
    /// Distinct states in the (certified) reachable set.
    pub states: u64,
    /// Transitions in the (certified) edge multiset.
    pub edges: u64,
    /// The named verdicts, in registration order.
    pub verdicts: Vec<(String, bool)>,
    /// Wall-clock duration of the replay (warm) or the exploration
    /// including certificate emission (cold).
    pub elapsed: Duration,
}

/// Serializes `graph` into a certificate at `path`.
///
/// States are re-encoded with the run's own encoder (so symmetry-reduced
/// graphs record orbit-representative codes) and sorted; each state's
/// rank in that order is its canonical index, making the output
/// independent of the engine's discovery order.
pub(crate) fn write_graph<M>(
    graph: &StateGraph<M>,
    encoder: &StateEncoder<M>,
    structural: Fp128,
    verdicts: &[(String, VerdictFn<M>)],
    path: &std::path::Path,
) -> Result<(), CertError>
where
    M: Machine + Eq + Hash,
{
    let codes: Vec<Box<[u8]>> = graph.states.iter().map(|s| encoder.encode(s).0).collect();
    let mut order: Vec<usize> = (0..codes.len()).collect();
    order.sort_unstable_by(|&a, &b| codes[a].cmp(&codes[b]));
    let mut rank = vec![0u64; codes.len()];
    for (r, &id) in order.iter().enumerate() {
        rank[id] = r as u64;
    }

    let mut writer = CertWriter::create(path, structural)?;
    for &id in &order {
        writer.push_code(&codes[id])?;
    }

    let mut edges: Vec<(u64, u64, u64, bool)> = Vec::with_capacity(graph.edge_count());
    for (id, _) in graph.states() {
        for edge in graph.edges(id) {
            edges.push((rank[id], rank[edge.target], edge.proc as u64, edge.crash));
        }
    }
    edges.sort_unstable();
    for (src, tgt, proc, crash) in edges {
        writer.push_edge(src, tgt, proc, crash)?;
    }

    let evaluated: Vec<(String, bool)> = verdicts
        .iter()
        .map(|(name, pred)| (name.clone(), pred(graph)))
        .collect();
    writer.finish(&evaluated)
}

/// The warm/cold driver for proof-carrying exploration.
///
/// `make` builds the explorer — configuration, symmetry mode and
/// [`verdict`](super::Explorer::verdict)s included — and may be called
/// up to three times (key derivation, the run itself, the replay).
/// The flow:
///
/// 1. Key the problem by [`structural_hash`](super::Explorer::structural_hash)
///    and look it up in `store`.
/// 2. **Warm**: a stored certificate that replays cleanly answers
///    without any exploration. A certificate that fails to replay —
///    stale key, damaged file — is deleted and the run falls through to
///    cold, so corruption degrades to a recomputation, never an error.
/// 3. **Cold**: explore with certificate emission, then replay the
///    fresh certificate once as an emission self-check (the returned
///    counts and verdicts always come from a *verified* certificate,
///    whichever path ran). `elapsed` covers the exploration and
///    emission, not the self-check.
///
/// With `ANONREG_NO_CACHE` set, step 2 is skipped but step 3 still
/// refreshes the store.
///
/// # Errors
///
/// Exploration errors pass through; a fresh certificate that fails its
/// own self-check surfaces as [`ExploreError::Certificate`].
pub fn run_cached<'p, M, P, F>(store: &CacheStore, make: F) -> Result<CachedOutcome, ExploreError>
where
    M: Machine + Eq + Hash,
    P: Probe + 'p,
    F: Fn() -> Explorer<'p, M, P>,
{
    let key = make().structural_hash();
    let path = store.path(key);
    if !anonreg_cache::cache_disabled() && path.exists() {
        match make().replay_certificate(&path) {
            Ok(report) => {
                return Ok(CachedOutcome {
                    warm: true,
                    states: report.states,
                    edges: report.edges,
                    verdicts: report.verdicts,
                    elapsed: report.elapsed,
                });
            }
            Err(_) => {
                // Stale or damaged: drop it and recompute.
                let _ = std::fs::remove_file(&path);
            }
        }
    }
    let start = Instant::now();
    make().certify(&path).run()?;
    let elapsed = start.elapsed();
    let report = make()
        .replay_certificate(&path)
        .map_err(|e| ExploreError::Certificate {
            message: format!("fresh certificate failed its self-check: {e}"),
        })?;
    Ok(CachedOutcome {
        warm: false,
        states: report.states,
        edges: report.edges,
        verdicts: report.verdicts,
        elapsed,
    })
}
