//! Counted atomic wrappers (§3.1.5).
//!
//! CUDA distinguishes specialized atomics (`atomicMin`, `atomicMax`),
//! which always complete but may leave the target unchanged, from the
//! generic `atomicCAS`, which fails when the target does not hold the
//! expected value. The paper counts both kinds of outcomes; these
//! wrappers do the same, recording into an optional
//! [`AtomicTally`] so instrumentation can be compiled in but switched
//! off (pass `None`).
//!
//! Orderings are `Relaxed`: the ECL algorithms are monotonic
//! (labels only shrink, signatures only grow, statuses only become more
//! decided), so the usual release/acquire pairing is unnecessary for
//! correctness of the converged result — the host-side join at the end
//! of every launch provides the final synchronization. This mirrors the
//! CUDA originals, which use plain `atomicCAS`/`atomicMin` with device
//! memory semantics.
//!
//! Every op takes the block's [`Hooks`] snapshot (from the kernel's
//! context; [`Hooks::OFF`] in host code) and reports itself to the
//! observers that want it. No op reads a thread-local: under
//! [`Hooks::unswitch`] with nothing listening, the report compiles
//! away.
//!
//! An ineffective min/max is a load. `fetch_min`/`fetch_max` load the
//! cell first. When the loaded value already proves the operation a
//! no-op ([`min_is_noop`], [`max_is_noop`]), they issue no RMW and
//! return the loaded value as the old value. A no-effect min/max writes
//! nothing, so linearizing it at that load is a legal execution of the
//! same atomic: the simulated program, its outcome counts, checker
//! classification and trace events are those of the RMW. Only the host
//! stops paying a locked read-modify-write (on x86 a `lock cmpxchg`
//! loop) for a no-op. `cas` keeps its RMW: its failures are a measured
//! outcome of their own.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

use ecl_profiling::{AtomicOutcome, AtomicTally};

use crate::check::AccessKind;
use crate::observe::{self, Hooks};

/// The skip test of the counted `atomicMin`: whether a cell seen
/// holding `seen` makes `atomicMin(v)` a no-op (`v >= seen`). Shared
/// with the `ecl-mc` harness that checks the test-first protocol.
#[inline(always)]
pub fn min_is_noop<T: Ord>(seen: T, v: T) -> bool {
    v >= seen
}

/// The skip test of the counted `atomicMax`: whether a cell seen
/// holding `seen` makes `atomicMax(v)` a no-op (`v <= seen`).
#[inline(always)]
pub fn max_is_noop<T: Ord>(seen: T, v: T) -> bool {
    v <= seen
}

macro_rules! counted_atomic {
    ($name:ident, $atomic:ty, $prim:ty, $doc:expr) => {
        #[doc = $doc]
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $atomic,
        }

        impl $name {
            const SIZE: usize = std::mem::size_of::<Self>();

            /// A new cell holding `v`.
            pub fn new(v: $prim) -> Self {
                Self { inner: <$atomic>::new(v) }
            }

            /// The cell's address, as the observers see it.
            #[inline(always)]
            fn addr(&self) -> usize {
                self as *const Self as usize
            }

            /// Relaxed load. Semantically a *plain* CUDA read: the
            /// race detector treats it as an ordinary access, not an
            /// atomic.
            #[inline]
            pub fn load(&self, hooks: Hooks) -> $prim {
                observe::access(hooks, self.addr(), Self::SIZE, AccessKind::Read);
                self.inner.load(Ordering::Relaxed)
            }

            /// Relaxed store. Semantically a *plain* CUDA write: the
            /// race detector treats it as an ordinary access, not an
            /// atomic.
            #[inline]
            pub fn store(&self, v: $prim, hooks: Hooks) {
                observe::access(hooks, self.addr(), Self::SIZE, AccessKind::Write);
                self.inner.store(v, Ordering::Relaxed)
            }

            /// Records one RMW outcome in `tally` and reports it to the
            /// observers.
            #[inline(always)]
            fn record_rmw(
                &self,
                outcome: AtomicOutcome,
                tally: Option<&AtomicTally>,
                hooks: Hooks,
            ) {
                if let Some(t) = tally {
                    t.record(outcome);
                }
                observe::rmw(hooks, self.addr(), Self::SIZE, outcome);
            }

            /// CUDA `atomicCAS`: installs `new` iff the cell holds
            /// `expected`; returns the value held before the operation
            /// (CUDA semantics). Records Updated / CasFailed.
            #[inline]
            pub fn cas(
                &self,
                expected: $prim,
                new: $prim,
                tally: Option<&AtomicTally>,
                hooks: Hooks,
            ) -> $prim {
                let (old, outcome) = match self.inner.compare_exchange(
                    expected,
                    new,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(old) => (old, AtomicOutcome::Updated),
                    Err(old) => (old, AtomicOutcome::CasFailed),
                };
                self.record_rmw(outcome, tally, hooks);
                old
            }

            /// CUDA `atomicMin`: lowers the cell to `v` if smaller;
            /// returns the previous value and records Updated /
            /// NoEffect. A no-op is a load (module docs).
            #[inline]
            pub fn fetch_min(&self, v: $prim, tally: Option<&AtomicTally>, hooks: Hooks) -> $prim {
                let seen = self.inner.load(Ordering::Relaxed);
                let old = if min_is_noop(seen, v) {
                    seen
                } else {
                    self.inner.fetch_min(v, Ordering::Relaxed)
                };
                let outcome =
                    if v < old { AtomicOutcome::Updated } else { AtomicOutcome::NoEffect };
                self.record_rmw(outcome, tally, hooks);
                old
            }

            /// CUDA `atomicMax`: raises the cell to `v` if larger;
            /// returns the previous value and records Updated /
            /// NoEffect. A no-op is a load (module docs).
            #[inline]
            pub fn fetch_max(&self, v: $prim, tally: Option<&AtomicTally>, hooks: Hooks) -> $prim {
                let seen = self.inner.load(Ordering::Relaxed);
                let old = if max_is_noop(seen, v) {
                    seen
                } else {
                    self.inner.fetch_max(v, Ordering::Relaxed)
                };
                let outcome =
                    if v > old { AtomicOutcome::Updated } else { AtomicOutcome::NoEffect };
                self.record_rmw(outcome, tally, hooks);
                old
            }

            /// Exclusive-access read (no atomics).
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }
        }

        impl From<$prim> for $name {
            fn from(v: $prim) -> Self {
                Self::new(v)
            }
        }
    };
}

counted_atomic!(
    CountedU32,
    AtomicU32,
    u32,
    "A counted 32-bit atomic (vertex labels, colors, signatures)."
);
counted_atomic!(
    CountedU64,
    AtomicU64,
    u64,
    "A counted 64-bit atomic (packed weight/edge-id pairs in ECL-MST)."
);
counted_atomic!(
    CountedU8,
    AtomicU8,
    u8,
    "A counted 8-bit atomic (ECL-MIS one-byte status/priority)."
);

/// Builds a `Vec<CountedU32>` initialized by `f(i)`. Convenience for
/// label/signature arrays.
pub fn atomic_u32_array(n: usize, f: impl Fn(usize) -> u32) -> Vec<CountedU32> {
    (0..n).map(|i| CountedU32::new(f(i))).collect()
}

/// Builds a `Vec<CountedU64>` initialized by `f(i)`.
pub fn atomic_u64_array(n: usize, f: impl Fn(usize) -> u64) -> Vec<CountedU64> {
    (0..n).map(|i| CountedU64::new(f(i))).collect()
}

/// Builds a `Vec<CountedU8>` initialized by `f(i)`.
pub fn atomic_u8_array(n: usize, f: impl Fn(usize) -> u8) -> Vec<CountedU8> {
    (0..n).map(|i| CountedU8::new(f(i))).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn cas_success_and_failure_counted() {
        let t = AtomicTally::new();
        let a = CountedU32::new(5);
        // Success: returns the old value.
        assert_eq!(a.cas(5, 9, Some(&t), Hooks::OFF), 5);
        assert_eq!(a.load(Hooks::OFF), 9);
        // Failure: returns the current (unexpected) value.
        assert_eq!(a.cas(5, 7, Some(&t), Hooks::OFF), 9);
        assert_eq!(a.load(Hooks::OFF), 9);
        assert_eq!(t.attempted(), 2);
        assert_eq!(t.updated(), 1);
        assert_eq!(t.cas_failed(), 1);
    }

    #[test]
    fn fetch_min_effectiveness() {
        let t = AtomicTally::new();
        let a = CountedU32::new(10);
        assert_eq!(a.fetch_min(3, Some(&t), Hooks::OFF), 10);
        assert_eq!(a.load(Hooks::OFF), 3);
        assert_eq!(a.fetch_min(8, Some(&t), Hooks::OFF), 3);
        assert_eq!(a.load(Hooks::OFF), 3);
        assert_eq!(t.updated(), 1);
        assert_eq!(t.no_effect(), 1);
    }

    #[test]
    fn fetch_max_effectiveness() {
        let t = AtomicTally::new();
        let a = CountedU64::new(10);
        a.fetch_max(20, Some(&t), Hooks::OFF);
        a.fetch_max(15, Some(&t), Hooks::OFF);
        assert_eq!(a.load(Hooks::OFF), 20);
        assert_eq!(t.updated(), 1);
        assert_eq!(t.no_effect(), 1);
    }

    #[test]
    fn equal_value_minmax_is_no_effect() {
        let t = AtomicTally::new();
        let a = CountedU32::new(7);
        a.fetch_min(7, Some(&t), Hooks::OFF);
        a.fetch_max(7, Some(&t), Hooks::OFF);
        assert_eq!(t.no_effect(), 2);
        assert_eq!(t.updated(), 0);
    }

    #[test]
    fn none_tally_skips_recording() {
        let a = CountedU8::new(1);
        a.cas(1, 2, None, Hooks::OFF);
        a.fetch_max(9, None, Hooks::OFF);
        assert_eq!(a.load(Hooks::OFF), 9);
    }

    #[test]
    fn array_constructors() {
        let xs = atomic_u32_array(4, |i| i as u32 * 2);
        assert_eq!(xs[3].load(Hooks::OFF), 6);
        let ys = atomic_u64_array(2, |_| u64::MAX);
        assert_eq!(ys[0].load(Hooks::OFF), u64::MAX);
        let zs = atomic_u8_array(3, |i| i as u8);
        assert_eq!(zs[2].load(Hooks::OFF), 2);
    }

    #[test]
    fn concurrent_cas_only_one_wins() {
        let a = CountedU32::new(0);
        let t = AtomicTally::new();
        std::thread::scope(|s| {
            for i in 1..=8u32 {
                let (a, t) = (&a, &t);
                s.spawn(move || {
                    a.cas(0, i, Some(t), Hooks::OFF);
                });
            }
        });
        assert_ne!(a.load(Hooks::OFF), 0);
        assert_eq!(t.updated(), 1);
        assert_eq!(t.cas_failed(), 7);
    }

    #[test]
    fn concurrent_fetch_min_converges() {
        let a = CountedU32::new(u32::MAX);
        std::thread::scope(|s| {
            for i in 0..16u32 {
                let a = &a;
                s.spawn(move || {
                    a.fetch_min(1000 - i, None, Hooks::OFF);
                });
            }
        });
        assert_eq!(a.load(Hooks::OFF), 985);
    }

    #[test]
    fn get_mut_exclusive() {
        let mut a = CountedU32::new(1);
        *a.get_mut() = 42;
        assert_eq!(a.load(Hooks::OFF), 42);
    }

    /// The test-first min/max against a reference that always issues
    /// the RMW: same old values, same final value, same tally. Values
    /// are multiples of `MAX / 15`, so equal operands (no-ops that the
    /// skip test must catch) are common and the top bits are used.
    macro_rules! minmax_matches_the_rmw {
        ($test:ident, $counted:ty, $raw:ty, $prim:ty) => {
            proptest::proptest! {
                #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

                #[test]
                fn $test(
                    init in 0u64..16,
                    ops in proptest::collection::vec((0u8..2, 0u64..16), 0..48),
                ) {
                    let step = <$prim>::MAX / 15;
                    let fast = <$counted>::new(init as $prim * step);
                    let rmw = <$raw>::new(init as $prim * step);
                    let (fast_tally, rmw_tally) = (AtomicTally::new(), AtomicTally::new());
                    for (is_max, x) in ops {
                        let v = x as $prim * step;
                        let (got, want, updated) = if is_max == 1 {
                            let want = rmw.fetch_max(v, Ordering::Relaxed);
                            (fast.fetch_max(v, Some(&fast_tally), Hooks::OFF), want, v > want)
                        } else {
                            let want = rmw.fetch_min(v, Ordering::Relaxed);
                            (fast.fetch_min(v, Some(&fast_tally), Hooks::OFF), want, v < want)
                        };
                        rmw_tally.record(if updated {
                            AtomicOutcome::Updated
                        } else {
                            AtomicOutcome::NoEffect
                        });
                        proptest::prop_assert_eq!(got, want);
                    }
                    proptest::prop_assert_eq!(fast.load(Hooks::OFF), rmw.load(Ordering::Relaxed));
                    proptest::prop_assert_eq!(
                        (fast_tally.updated(), fast_tally.no_effect()),
                        (rmw_tally.updated(), rmw_tally.no_effect())
                    );
                }
            }
        };
    }

    minmax_matches_the_rmw!(minmax_u8_matches_the_rmw, CountedU8, AtomicU8, u8);
    minmax_matches_the_rmw!(minmax_u32_matches_the_rmw, CountedU32, AtomicU32, u32);
    minmax_matches_the_rmw!(minmax_u64_matches_the_rmw, CountedU64, AtomicU64, u64);

    #[test]
    fn concurrent_fetch_max_reaches_the_max_and_counts_every_call() {
        const THREADS: u32 = 4;
        const CALLS: u32 = 10_000;
        let a = CountedU32::new(0);
        let t = AtomicTally::new();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for w in 0..THREADS {
                let (a, t, start) = (&a, &t, &start);
                // Interleaved ascending values from a common start: the
                // threads keep overtaking each other, so both paths run.
                s.spawn(move || {
                    start.wait();
                    for i in 0..CALLS {
                        a.fetch_max(i * THREADS + w, Some(t), Hooks::OFF);
                    }
                });
            }
        });
        assert_eq!(a.load(Hooks::OFF), THREADS * CALLS - 1);
        assert_eq!(t.updated() + t.no_effect(), u64::from(THREADS * CALLS));
        assert!(t.updated() >= 1);
    }

    #[test]
    fn a_skipped_rmw_still_reports_no_effect_to_the_observers() {
        let d = crate::Device::test_small();
        let rec = std::sync::Arc::new(crate::check::tests::Recorder::default());
        let _attached = d.observe(rec.clone());
        let (a, b, c) = (CountedU8::new(5), CountedU32::new(5), CountedU64::new(5));
        // One in-order block, run on this thread: six no-ops (each
        // proven by the first load, so no RMW), then one real update.
        crate::pool::with_policy(crate::DispatchPolicy::sequential(), || {
            crate::launch_blocks_named(&d, "t.skip", crate::LaunchConfig::new(1, 1), |blk| {
                let h = blk.hooks;
                assert_eq!((a.fetch_max(5, None, h), a.fetch_min(9, None, h)), (5, 5));
                assert_eq!((b.fetch_max(1, None, h), b.fetch_min(5, None, h)), (5, 5));
                assert_eq!((c.fetch_max(0, None, h), c.fetch_min(u64::MAX, None, h)), (5, 5));
                assert_eq!(b.fetch_max(6, None, h), 5);
            });
        });

        let calls = rec.take();
        let accesses: Vec<&str> =
            calls.iter().filter(|c| c.starts_with("access")).map(String::as_str).collect();
        let no_effect = |size| format!("access AtomicNoEffect {size} b0");
        let (n1, n4, n8) = (no_effect(1), no_effect(4), no_effect(8));
        assert_eq!(accesses, [&n1, &n1, &n4, &n4, &n8, &n8, "access AtomicUpdated 4 b0"]);
    }
}
