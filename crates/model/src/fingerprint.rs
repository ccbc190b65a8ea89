//! Stable fingerprinting for state interning.
//!
//! The explicit-state model checker in `anonreg-sim` deduplicates billions
//! of candidate configurations. Rust's default [`std::collections::HashMap`]
//! hasher is randomly keyed per process, which is exactly right for
//! DoS-resistant maps but wrong for *interning*: the parallel explorer
//! shards its dedup table by state hash and exchanges `(id, fingerprint)`
//! pairs between workers, so every thread must compute the **same**
//! fingerprint for the same configuration, and a run must be reproducible
//! from its recorded fingerprints.
//!
//! Two hashes live here:
//!
//! * [`Fnv64`] is the classic FNV-1a 64-bit hash as a [`Hasher`], with
//!   the multi-byte integer writes pinned to little-endian so
//!   fingerprints are stable across platforms as well as across threads.
//! * [`fp128`] is the 128-bit fingerprint of a byte string (a state
//!   code, a certificate record, a structural key's framed inputs). It
//!   reads the input a little-endian word at a time into two independent
//!   multiply–xorshift lanes, one per [`Fp128`] half, so hashing a
//!   364-byte state code costs ~46 word steps instead of 364 serial
//!   128-bit multiplies.
//!
//! Neither is collision resistant against adversarial inputs — interners
//! must confirm candidate matches with a full equality check, which is
//! what the explorer's dedup table does.

use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The FNV-1a 64-bit hash as a deterministic [`Hasher`].
///
/// Unlike [`std::collections::hash_map::RandomState`], two `Fnv64` values
/// fed the same bytes always agree — across instances, threads, processes
/// and platforms (integer writes are little-endian).
#[derive(Clone, Copy, Debug)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// Creates a hasher at the standard FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a is inherently byte-serial, but splitting the loop into
        // fixed four-byte batches lets the compiler keep the state in a
        // register and unroll the multiply chain; the output is byte-exact
        // with the naive loop (checked against the reference vectors).
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(4);
        for chunk in &mut chunks {
            state = (state ^ u64::from(chunk[0])).wrapping_mul(FNV_PRIME);
            state = (state ^ u64::from(chunk[1])).wrapping_mul(FNV_PRIME);
            state = (state ^ u64::from(chunk[2])).wrapping_mul(FNV_PRIME);
            state = (state ^ u64::from(chunk[3])).wrapping_mul(FNV_PRIME);
        }
        for &b in chunks.remainder() {
            state = (state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.state = state;
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        // Hash as u64 so 32- and 64-bit builds agree.
        self.write_u64(i as u64);
    }

    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }
}

/// The stable fingerprint of any hashable value: `value` fed through a
/// fresh [`Fnv64`].
#[must_use]
pub fn fingerprint_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = Fnv64::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// A 128-bit state fingerprint split into two independent 64-bit halves.
///
/// The lock-free dedup table in `anonreg-sim` keys probe sequences on
/// `lo` and stores (part of) `hi` alongside the interned id, so a match
/// on both halves carries ~96–128 bits of discrimination before the full
/// canonical-code comparison. At 10⁸ interned states the birthday bound
/// for a 128-bit hash puts the collision probability below 2⁻⁷⁰, which is
/// what lets the spill tier fall back to fingerprint-only matching when a
/// code is neither cached nor yet flushed to disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fp128 {
    /// Low half: selects the probe sequence in open-addressing tables.
    pub lo: u64,
    /// High half: verified in-slot before any code comparison.
    pub hi: u64,
}

/// Lane seeds (the fractional parts of φ and √2).
const LANE_SEED: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0x6a09_e667_f3bc_c908];
/// Lane multipliers: odd, so each lane step is a bijection of its state.
const LANE_MUL: [u64; 2] = [0xbf58_476d_1ce4_e5b9, 0x94d0_49bb_1331_11eb];
/// Lane xorshift distances, distinct so the lanes never mix alike.
const LANE_SHIFT: [u32; 2] = [29, 32];

/// One lane step: absorb `word`, then multiply–xorshift. For a fixed
/// `word` the step is a bijection of `state`.
#[inline(always)]
fn lane_step(state: u64, word: u64, lane: usize) -> u64 {
    let x = (state ^ word).wrapping_mul(LANE_MUL[lane]);
    x ^ (x >> LANE_SHIFT[lane])
}

/// The murmur3 64-bit finaliser: a bijection with full avalanche.
#[inline(always)]
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Hashes `bytes` eight at a time into an [`Fp128`].
///
/// The input is read as little-endian 64-bit words; every word feeds two
/// independent multiply–xorshift lanes with different seeds, multipliers
/// and shifts, and each lane becomes one half through [`fmix64`]. The
/// length is folded into both seeds, and a partial last word is
/// zero-padded with its byte count in the top byte, so inputs of
/// different lengths — all-zero ones included — never meet by padding.
/// Every step is a bijection of the lane state, so two equal-length
/// inputs that differ in a single word always differ in *both* halves.
///
/// Std-only and platform-independent (explicit little-endian reads, no
/// seeds from the environment): every thread, run and host computes the
/// same value. Like FNV it is not collision resistant against an
/// adversary; the explorer confirms fingerprint matches against the full
/// canonical code.
#[must_use]
pub fn fp128(bytes: &[u8]) -> Fp128 {
    let len = bytes.len() as u64;
    let mut a = LANE_SEED[0] ^ len.wrapping_mul(LANE_MUL[1]);
    let mut b = LANE_SEED[1] ^ len.wrapping_mul(LANE_MUL[0]);
    let mut words = bytes.chunks_exact(8);
    for chunk in &mut words {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        a = lane_step(a, word, 0);
        b = lane_step(b, word, 1);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        tail[7] = rest.len() as u8;
        let word = u64::from_le_bytes(tail);
        a = lane_step(a, word, 0);
        b = lane_step(b, word, 1);
    }
    Fp128 {
        lo: fmix64(a),
        hi: fmix64(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = fingerprint_of(&(1u64, vec![2u8, 3], "state"));
        let b = fingerprint_of(&(1u64, vec![2u8, 3], "state"));
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(fingerprint_of(&1u64), fingerprint_of(&2u64));
        assert_ne!(fingerprint_of(&[1u8, 2]), fingerprint_of(&[2u8, 1]));
    }

    #[test]
    fn matches_reference_vectors() {
        // FNV-1a 64 reference values for raw byte input.
        let mut h = Fnv64::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn batched_write_matches_serial_fnv() {
        // Lengths straddling the 4-byte batch boundary must agree with a
        // plain byte-at-a-time FNV-1a evaluation.
        for len in 0..32usize {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let mut serial = FNV_OFFSET;
            for &b in &bytes {
                serial = (serial ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            let mut h = Fnv64::new();
            h.write(&bytes);
            assert_eq!(h.finish(), serial, "length {len}");
        }
    }

    #[test]
    fn fp128_matches_pinned_vectors() {
        // Recorded from this implementation: any change to the function
        // changes every certificate header, so it must be deliberate
        // (bump the certificate container version with it).
        let cases: [(&[u8], u64, u64); 5] = [
            (b"", 0x9ca0_66f1_a4ab_2eea, 0xbd0e_d0d0_8a42_a70c),
            (b"a", 0xb668_c526_aca1_9a53, 0x06a7_68a4_c32a_51dd),
            (b"foobar", 0x84a9_221f_159a_25c2, 0xbf8e_41da_becb_0004),
            (
                b"anonreg-cert-v3",
                0x83a3_c43f_5871_d1a3,
                0xadda_c084_06e4_fc2d,
            ),
            (&SEQ64, 0x0c65_30f3_1d88_1168, 0xbbe3_18c9_57a3_6819),
        ];
        for (bytes, lo, hi) in cases {
            assert_eq!(fp128(bytes), Fp128 { lo, hi }, "input {bytes:?}");
        }
    }

    /// `0, 1, …, 63`: eight full words, no tail.
    const SEQ64: [u8; 64] = {
        let mut seq = [0u8; 64];
        let mut i = 0;
        while i < 64 {
            seq[i] = i as u8;
            i += 1;
        }
        seq
    };

    #[test]
    fn fp128_all_zero_inputs_of_every_length_are_distinct() {
        let zeros = [0u8; 64];
        let mut seen = std::collections::HashSet::new();
        for len in 0..64 {
            let fp = fp128(&zeros[..len]);
            assert!(seen.insert(fp), "length {len} repeats a fingerprint");
        }
    }

    #[test]
    fn fp128_single_byte_flip_changes_both_halves() {
        // Lengths straddle the word boundary so both full words and the
        // padded tail are exercised.
        for len in [1usize, 7, 8, 9, 15, 16, 17, 63, 364] {
            let base: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let before = fp128(&base);
            for pos in 0..len {
                for mask in [0x01u8, 0x80, 0xff] {
                    let mut flipped = base.clone();
                    flipped[pos] ^= mask;
                    let after = fp128(&flipped);
                    assert_ne!(before.lo, after.lo, "len {len} pos {pos} mask {mask:#x}");
                    assert_ne!(before.hi, after.hi, "len {len} pos {pos} mask {mask:#x}");
                }
            }
        }
    }

    #[test]
    fn fp128_halves_are_independent_discriminators() {
        let a = fp128(b"configuration-a");
        let b = fp128(b"configuration-b");
        assert_ne!(a, b);
        assert_ne!(a.lo, b.lo);
        assert_ne!(a.hi, b.hi);
    }

    #[test]
    fn integer_writes_are_width_stable() {
        // usize hashes like u64, so fingerprints agree across pointer widths.
        let mut a = Fnv64::new();
        a.write_usize(7);
        let mut b = Fnv64::new();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
