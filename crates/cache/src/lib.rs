//! Proof-carrying reachability certificates for the anonreg model checker.
//!
//! Exploring a family's state space is expensive; *re-checking* a recorded
//! exploration is not. This crate gives the explorer a durable, compact
//! witness of a finished run — the **certificate** — and a verifier that
//! re-validates it by streaming membership/closure checks instead of
//! frontier search:
//!
//! * [`cert::CertWriter`] serializes the reachable set as a delta-encoded,
//!   lexicographically sorted list of canonical state codes, the edge
//!   multiset as `(source, target, process, crash)` index tuples over that
//!   sorted order, a 128-bit fingerprint of each section (including the
//!   verdict section, so a tampered verdict cannot replay cleanly), and
//!   the named safety/liveness verdicts the run established.
//! * [`cert::replay`] re-validates a certificate from disk in **bounded
//!   memory** (one previous-code buffer, buffered sequential IO — the same
//!   discipline as the explorer's spill tier): codes must be strictly
//!   ascending (hence distinct), the initial configuration must be a
//!   member, every recorded successor index must land inside the recorded
//!   set, and both section fingerprints must re-derive bit-exactly.
//! * [`store::CacheStore`] keys certificates by the 128-bit *structural
//!   hash* of the verification problem
//!   ([`anonreg_model::structural::StructuralHasher`]): machine type
//!   identity and build version, initial configuration, views, limits,
//!   failure model, symmetry mode and the registered verdict names. A
//!   certificate whose embedded key no longer matches is refused as
//!   [`cert::CertError::Stale`] — the cache can serve wrong-but-fast
//!   answers only by breaking a 128-bit `fp128` collision.
//!
//! What replay does **not** re-establish is that the recorded set is the
//! true reachable set of the machines — that is exactly the part pinned by
//! the structural key, which changes whenever the machines, limits or
//! symmetry mode do. One caveat lives there: a transition function is
//! code, so the key pins its type name and crate version, not its logic —
//! editing `resume()` without bumping the crate version requires a manual
//! invalidation (`check verify-cache --invalidate` or
//! [`store::CacheStore::clear`]) before persisted stores can be trusted
//! again. The scheme mirrors the sanitizer's `ORD-*` certificates: derive
//! once, re-check cheaply, invalidate structurally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod store;

pub use cert::{replay, CertError, CertWriter, ReplaySummary};
pub use store::{cache_disabled, CacheStore};
