//! The one-byte status/priority encoding of ECL-MIS (§2.3).
//!
//! A single byte per vertex encodes both its decision status and its
//! selection priority, "minimizing memory usage and avoiding the need
//! for separate status and priority arrays":
//!
//! - `0x00` — decided *out*,
//! - `0xFE` — decided *in*,
//! - `0x01..=0xFD` — undecided, holding the priority.
//!
//! Priorities favor low-degree vertices (they block fewer others, so
//! preferring them "boosts the MIS size"); vertex ids break ties.

/// Status byte of a vertex decided out of the set.
pub const OUT: u8 = 0x00;

/// Status byte of a vertex decided into the set.
pub const IN: u8 = 0xFE;

/// True if the byte encodes a decided vertex.
#[inline]
pub fn decided(s: u8) -> bool {
    s == OUT || s == IN
}

/// True if the byte encodes an undecided vertex.
#[inline]
pub fn undecided(s: u8) -> bool {
    !decided(s)
}

/// Priority byte for a vertex of the given degree: a logarithmic
/// degree bucket mapped so that *lower* degrees receive *higher*
/// priorities, clamped into the undecided range `1..=253`.
pub fn priority(degree: usize) -> u8 {
    // log2 bucket of (degree + 1): 0 for isolated, up to 32.
    let bucket = usize::BITS - (degree + 1).leading_zeros();
    let p = 253i32 - 8 * bucket as i32;
    p.clamp(1, 253) as u8
}

/// The priority policy of the selection order. ECL-MIS uses
/// [`PriorityPolicy::DegreeBased`] because "favor\[ing\] low-degree
/// vertices ... boosts the MIS size" (§2.3); the alternatives exist
/// for the ablation benchmark quantifying exactly that claim.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PriorityPolicy {
    /// Low degree → high priority, hashed-id tie-break (ECL-MIS).
    #[default]
    DegreeBased,
    /// A pure pseudo-random permutation (Luby-style), degree-blind.
    RandomPermutation,
    /// Raw vertex-id order (the worst case: deterministic and
    /// structure-blind).
    IdOrder,
}

impl PriorityPolicy {
    /// The status byte an undecided vertex starts with under this
    /// policy.
    pub fn initial_byte(self, degree: usize, vertex: u32) -> u8 {
        match self {
            PriorityPolicy::DegreeBased => priority(degree),
            // One shared byte: the total order then falls back to the
            // hashed (RandomPermutation) or raw (IdOrder via hash of a
            // constant... see `beats_with`) id comparison.
            PriorityPolicy::RandomPermutation => 128,
            PriorityPolicy::IdOrder => {
                // Spread ids over the byte range so the *byte* already
                // encodes most of the id order (the tie-break settles
                // the rest deterministically).
                (1 + (vertex % 253)) as u8
            }
        }
    }
}

/// Total priority order between two undecided vertices: compares the
/// priority bytes, breaking ties with a hashed vertex id (a
/// "deterministic partial permutation", §2.3) and finally the raw id,
/// so the order is total and the resulting MIS unique.
#[inline]
pub fn beats(status_a: u8, a: u32, status_b: u8, b: u32) -> bool {
    beats_salted(0, status_a, a, status_b, b)
}

/// [`beats`] with a permutation salt folded into the hashed tie-break.
/// Salt 0 reproduces [`beats`] exactly; any other salt selects a
/// different (still deterministic and total) tie-break permutation, so
/// a job-level seed can be plumbed through to the selection order
/// while identical `(input, seed)` requests stay byte-identical.
#[inline]
pub fn beats_salted(salt: u32, status_a: u8, a: u32, status_b: u8, b: u32) -> bool {
    salted_rank(salt, status_a, a) > salted_rank(salt, status_b, b)
}

/// The sort key of [`beats_salted`]: `a` beats `b` exactly when `a`'s
/// rank is the larger, so a max-heap of ranks pops in priority order.
#[inline]
pub fn salted_rank(salt: u32, status: u8, v: u32) -> (u8, u32, u32) {
    (status, hash_id(v ^ salt), v)
}

#[inline]
fn hash_id(v: u32) -> u32 {
    // Finalizer of MurmurHash3; decorrelates priority ties from raw id
    // order so the permutation looks random, as in ECL-MIS.
    let mut x = v;
    x ^= x >> 16;
    x = x.wrapping_mul(0x85EB_CA6B);
    x ^= x >> 13;
    x = x.wrapping_mul(0xC2B2_AE35);
    x ^ (x >> 16)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_decided() {
        assert!(decided(OUT));
        assert!(decided(IN));
        assert!(undecided(128));
        assert!(undecided(1));
        assert!(undecided(253));
    }

    #[test]
    fn priority_in_undecided_range() {
        for d in [0usize, 1, 2, 5, 10, 100, 1000, 1 << 20, usize::MAX >> 1] {
            let p = priority(d);
            assert!(undecided(p), "degree {d} priority {p} not undecided");
        }
    }

    #[test]
    fn low_degree_gets_higher_priority() {
        assert!(priority(0) > priority(10));
        assert!(priority(2) > priority(100));
        assert!(priority(10) >= priority(1000));
    }

    #[test]
    fn same_bucket_same_priority() {
        // Degrees 8..14 share a log bucket: ties broken by id instead.
        assert_eq!(priority(8), priority(14));
    }

    #[test]
    fn beats_is_total_and_antisymmetric() {
        let cases = [(10u8, 3u32), (10, 7), (20, 3), (253, 0), (1, u32::MAX)];
        for &(sa, a) in &cases {
            for &(sb, b) in &cases {
                if (sa, a) != (sb, b) {
                    assert_ne!(
                        beats(sa, a, sb, b),
                        beats(sb, b, sa, a),
                        "({sa},{a}) vs ({sb},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn higher_status_byte_always_beats() {
        assert!(beats(100, 5, 50, 1));
        assert!(!beats(50, 1, 100, 5));
    }

    #[test]
    fn tie_break_is_deterministic() {
        let a = beats(100, 1, 100, 2);
        let b = beats(100, 1, 100, 2);
        assert_eq!(a, b);
        assert_ne!(beats(100, 1, 100, 2), beats(100, 2, 100, 1));
    }

    #[test]
    fn salt_zero_reproduces_unsalted_order() {
        for a in 0u32..64 {
            for b in 0u32..64 {
                assert_eq!(
                    beats_salted(0, 100, a, 100, b),
                    beats(100, a, 100, b),
                    "salt 0 must be the historical tie-break ({a} vs {b})"
                );
            }
        }
    }

    #[test]
    fn salts_permute_but_stay_total() {
        let mut differs = false;
        for salt in [1u32, 0xDEAD_BEEF, 12345] {
            for a in 0u32..48 {
                for b in 0u32..48 {
                    if a == b {
                        continue;
                    }
                    // Still a strict total order under every salt.
                    assert_ne!(
                        beats_salted(salt, 100, a, 100, b),
                        beats_salted(salt, 100, b, 100, a),
                        "salt {salt}: ({a},{b}) not antisymmetric"
                    );
                    if beats_salted(salt, 100, a, 100, b) != beats(100, a, 100, b) {
                        differs = true;
                    }
                }
            }
        }
        assert!(differs, "a nonzero salt must select a different permutation");
    }
}
