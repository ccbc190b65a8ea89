//! Structural hashing: stable 128-bit keys for proof-carrying caches.
//!
//! A reachability certificate (see the `anonreg-cache` crate) is only
//! valid for the exact verification problem it was emitted from: the
//! machines' transition structure, the register contents and process
//! views of the initial configuration, the exploration limits, the
//! failure model and the symmetry mode all determine the reachable set
//! and every verdict drawn from it. [`StructuralHasher`] folds those
//! inputs into one [`Fp128`] key that changes **iff the verified
//! semantics can change**: it reuses the deterministic 128-bit
//! [`fp128`] from [`fingerprint`](crate::fingerprint) over
//! byte-stable [`ByteSink`] encodings, so two processes (or two
//! checkouts) hashing the same problem always agree.
//!
//! # Framing
//!
//! Each component is hashed into its *own* sink first and then framed
//! into the accumulating stream as
//! `(label length, label bytes, value length, value bytes)`. The length
//! prefixes make the stream prefix-free: no pair of distinct component
//! sequences can serialize to the same bytes, so a hash equality cannot
//! be manufactured by sliding bytes between adjacent components (the
//! classic `("ab", "c")` vs `("a", "bc")` ambiguity).

use std::hash::{Hash, Hasher};

use crate::canon::ByteSink;
use crate::fingerprint::{fp128, Fp128};

/// Accumulates labelled components into a stable 128-bit structural key.
///
/// ```
/// use anonreg_model::structural::StructuralHasher;
///
/// let a = StructuralHasher::new("demo-v1")
///     .component("max_states", &1_000_000u64)
///     .component("crashes", &false)
///     .finish();
/// let b = StructuralHasher::new("demo-v1")
///     .component("max_states", &1_000_000u64)
///     .component("crashes", &true)
///     .finish();
/// assert_ne!(a, b);
/// ```
#[derive(Debug)]
#[must_use = "a StructuralHasher does nothing until `.finish()` is called"]
pub struct StructuralHasher {
    sink: ByteSink,
}

impl StructuralHasher {
    /// Starts a hash under `domain`, a version-carrying namespace string
    /// (e.g. `"anonreg-cert-v1"`). Two hashes under different domains
    /// never collide by construction, so bumping the domain retires
    /// every previously issued key at once.
    pub fn new(domain: &str) -> Self {
        let mut sink = ByteSink::new();
        sink.write_usize(domain.len());
        sink.write(domain.as_bytes());
        StructuralHasher { sink }
    }

    /// Folds in a hashable component under `label`. The value is hashed
    /// through its [`Hash`] impl into a fresh byte-stable sink, then
    /// framed with both the label's and the encoding's length.
    pub fn component<T: Hash + ?Sized>(mut self, label: &str, value: &T) -> Self {
        let mut encoded = ByteSink::new();
        value.hash(&mut encoded);
        self.frame(label, encoded.bytes());
        self
    }

    /// Folds in a pre-encoded byte component under `label` — for inputs
    /// that already have a canonical byte form (state codes, view
    /// permutations) where re-hashing through `Hash` would be indirect.
    pub fn raw(mut self, label: &str, bytes: &[u8]) -> Self {
        self.frame(label, bytes);
        self
    }

    fn frame(&mut self, label: &str, value: &[u8]) {
        self.sink.write_usize(label.len());
        self.sink.write(label.as_bytes());
        self.sink.write_usize(value.len());
        self.sink.write(value);
    }

    /// The accumulated 128-bit structural key.
    #[must_use]
    pub fn finish(self) -> Fp128 {
        fp128(self.sink.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let build = || {
            StructuralHasher::new("t-v1")
                .component("limit", &42u64)
                .raw("code", b"\x01\x02\x03")
                .finish()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn domain_separates() {
        let a = StructuralHasher::new("t-v1").component("x", &1u8).finish();
        let b = StructuralHasher::new("t-v2").component("x", &1u8).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn labels_and_values_both_discriminate() {
        let base = StructuralHasher::new("t").component("a", &7u64).finish();
        let label = StructuralHasher::new("t").component("b", &7u64).finish();
        let value = StructuralHasher::new("t").component("a", &8u64).finish();
        assert_ne!(base, label);
        assert_ne!(base, value);
    }

    #[test]
    fn framing_is_prefix_free() {
        // Sliding bytes between adjacent raw components must not collide.
        let a = StructuralHasher::new("t")
            .raw("x", b"ab")
            .raw("y", b"c")
            .finish();
        let b = StructuralHasher::new("t")
            .raw("x", b"a")
            .raw("y", b"bc")
            .finish();
        assert_ne!(a, b);
        // Nor between a label and its value.
        let c = StructuralHasher::new("t").raw("xy", b"z").finish();
        let d = StructuralHasher::new("t").raw("x", b"yz").finish();
        assert_ne!(c, d);
    }

    #[test]
    fn component_order_matters() {
        let a = StructuralHasher::new("t")
            .component("p", &1u8)
            .component("q", &2u8)
            .finish();
        let b = StructuralHasher::new("t")
            .component("q", &2u8)
            .component("p", &1u8)
            .finish();
        assert_ne!(a, b);
    }
}
