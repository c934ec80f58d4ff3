//! Lock-free union-find for the GPU execution model.
//!
//! ECL-MST "enables fast union-find operations using disjoint sets"
//! with "implicit path compression" (§2.4). Parent pointers always
//! point to smaller ids, so chains strictly decrease and concurrent
//! finds terminate; unions hook the larger root under the smaller one
//! with `atomicCAS`, retrying from fresh roots on failure.

use ecl_check::{register_benign_region, RegionHandle};
use ecl_gpusim::atomics::atomic_u32_array;
use ecl_gpusim::{CostKind, CountedU32, Device, Hooks};
use ecl_profiling::AtomicTally;

/// A concurrent disjoint-set forest over `0..n`.
#[derive(Debug)]
pub struct GpuUnionFind {
    parent: Vec<CountedU32>,
    /// Sanitizer registration: parent pointers race on purpose
    /// (pointer-jumping stores plus hooking CASes), so the region is
    /// declared benign for the lifetime of the structure.
    _region: RegionHandle,
}

impl GpuUnionFind {
    /// `n` singleton sets, registered with the session checking
    /// `device`, if any.
    pub fn new(device: &Device, n: usize) -> Self {
        let parent = atomic_u32_array(n, |i| i as u32);
        let _region = register_benign_region(
            device,
            "mst.uf-parent",
            &parent,
            "pointer jumping only shortcuts toward the root; chains strictly decrease (§2.4)",
        );
        Self { parent, _region }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True for an empty structure.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Root of `x` with intermediate pointer jumping (each visited
    /// entry is shortcut toward the root). `h` is the calling block's
    /// snapshot ([`Hooks::OFF`] on the host).
    pub fn find(&self, x: u32, device: &Device, h: Hooks) -> u32 {
        let mut curr = self.parent[x as usize].load(h);
        if curr != x {
            let mut prev = x;
            let mut next = self.parent[curr as usize].load(h);
            while curr > next {
                device.charge(CostKind::ThreadWork, 1);
                self.parent[prev as usize].store(next, h);
                prev = curr;
                curr = next;
                next = self.parent[curr as usize].load(h);
            }
        }
        curr
    }

    /// Merges the sets of `a` and `b`. Returns true if this call
    /// performed the merge, false if they were already joined.
    pub fn union(
        &self,
        a: u32,
        b: u32,
        device: &Device,
        tally: Option<&AtomicTally>,
        h: Hooks,
    ) -> bool {
        let mut ra = self.find(a, device, h);
        let mut rb = self.find(b, device, h);
        loop {
            if ra == rb {
                return false;
            }
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            device.charge(CostKind::Atomic, 1);
            if self.parent[hi as usize].cas(hi, lo, tally, h) == hi {
                return true;
            }
            // Lost the race: re-resolve both roots and retry.
            ra = self.find(lo, device, h);
            rb = self.find(hi, device, h);
        }
    }

    /// Number of distinct sets (host-side, quiescent).
    pub fn num_sets(&self, device: &Device) -> usize {
        (0..self.parent.len() as u32).filter(|&x| self.find(x, device, Hooks::OFF) == x).count()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn singleton_and_union() {
        let d = Device::test_small();
        let uf = GpuUnionFind::new(&d, 4);
        assert_eq!(uf.num_sets(&d), 4);
        assert!(uf.union(0, 1, &d, None, Hooks::OFF));
        assert!(!uf.union(1, 0, &d, None, Hooks::OFF));
        assert_eq!(uf.find(0, &d, Hooks::OFF), uf.find(1, &d, Hooks::OFF));
        assert_ne!(uf.find(0, &d, Hooks::OFF), uf.find(2, &d, Hooks::OFF));
        assert_eq!(uf.num_sets(&d), 3);
    }

    #[test]
    fn root_is_minimum_of_set() {
        let d = Device::test_small();
        let uf = GpuUnionFind::new(&d, 6);
        uf.union(5, 3, &d, None, Hooks::OFF);
        uf.union(3, 4, &d, None, Hooks::OFF);
        assert_eq!(uf.find(5, &d, Hooks::OFF), 3);
        assert_eq!(uf.find(4, &d, Hooks::OFF), 3);
    }

    #[test]
    fn path_compression_shortens() {
        let d = Device::test_small();
        let uf = GpuUnionFind::new(&d, 64);
        for x in (1..64).rev() {
            uf.union(x, x - 1, &d, None, Hooks::OFF);
        }
        assert_eq!(uf.find(63, &d, Hooks::OFF), 0);
        // Intermediate pointer jumping shortcuts each visited entry by
        // one hop, so the path halves per traversal and repeated finds
        // converge to a flat tree.
        assert!(uf.parent[63].load(Hooks::OFF) < 62);
        for _ in 0..8 {
            uf.find(63, &d, Hooks::OFF);
        }
        assert!(uf.parent[63].load(Hooks::OFF) <= 1, "parent {}", uf.parent[63].load(Hooks::OFF));
    }

    #[test]
    fn concurrent_unions_converge() {
        let d = Device::test_small();
        let n = 10_000u32;
        let uf = GpuUnionFind::new(&d, n as usize);
        // All pairs (i, i+1) unioned concurrently: must end as one set.
        (0..n - 1).into_par_iter().for_each(|i| {
            uf.union(i, i + 1, &d, None, Hooks::OFF);
        });
        assert_eq!(uf.num_sets(&d), 1);
        for x in (0..n).step_by(997) {
            assert_eq!(uf.find(x, &d, Hooks::OFF), 0);
        }
    }

    #[test]
    fn concurrent_unions_count_merges_exactly() {
        let d = Device::test_small();
        let n = 4096u32;
        let uf = GpuUnionFind::new(&d, n as usize);
        let merges: u32 = (0..n - 1)
            .into_par_iter()
            .map(|i| u32::from(uf.union(i, i + 1, &d, None, Hooks::OFF)))
            .sum();
        // Exactly n-1 successful merges regardless of interleaving.
        assert_eq!(merges, n - 1);
    }

    #[test]
    fn tally_records_cas_outcomes() {
        let d = Device::test_small();
        let t = AtomicTally::new();
        let uf = GpuUnionFind::new(&d, 3);
        uf.union(0, 1, &d, Some(&t), Hooks::OFF);
        uf.union(1, 2, &d, Some(&t), Hooks::OFF);
        assert!(t.updated() >= 2);
    }
}
