//! The hook snapshot a launch hands its kernel: what the device's
//! observers want of the block's counted ops, read once per block.
//! A loop run through `Hooks::unswitch` must report every op when a
//! member listens, and a block nothing listens to gets `Hooks::OFF`.

#![allow(clippy::unwrap_used)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ecl_gpusim::atomics::atomic_u32_array;
use ecl_gpusim::observe::{Observer, Wants};
use ecl_gpusim::{
    launch_blocks, launch_flat, launch_warps, AccessKind, Agent, Device, Hooks, LaunchConfig,
};

/// Counts the accesses it is told of.
struct Accesses(Wants, AtomicU64);

impl Observer for Accesses {
    fn wants(&self) -> Wants {
        self.0
    }
    fn access(&self, _: usize, _: usize, _: AccessKind, _: Option<Agent>) {
        self.1.fetch_add(1, Ordering::Relaxed);
    }
}

/// The snapshots the blocks of one launch of each shape were handed.
fn snapshots(d: &Device) -> Vec<Hooks> {
    let seen = Mutex::new(Vec::new());
    let cfg = LaunchConfig::new(2, 4);
    launch_flat(d, cfg, |t| seen.lock().unwrap().push(t.hooks));
    launch_blocks(d, cfg, |b| {
        let mut seen = seen.lock().unwrap();
        seen.push(b.hooks);
        seen.extend(b.threads().map(|t| t.hooks));
    });
    launch_warps(d, cfg, |w| seen.lock().unwrap().extend([w.hooks, w.thread(0).hooks]));
    seen.into_inner().unwrap()
}

#[test]
fn an_accesses_observer_sees_every_op_of_an_unswitched_loop() {
    let d = Device::test_small();
    let seen = Arc::new(Accesses(Wants { accesses: true, ..Wants::default() }, AtomicU64::new(0)));
    let _attached = d.observe(seen.clone());
    let cells = atomic_u32_array(8, |_| 5);
    let (blocks, rounds) = (3, 4);
    launch_blocks(&d, LaunchConfig::new(blocks, 16), |blk| {
        assert_ne!(blk.hooks, Hooks::OFF);
        blk.hooks.unswitch(
            #[inline(always)]
            |h| {
                for round in 0..rounds {
                    for c in cells.iter() {
                        let v = c.load(h);
                        c.store(v, h);
                        c.fetch_max(round, None, h);
                        c.fetch_min(v, None, h);
                        c.cas(v, v, None, h);
                    }
                }
            },
        );
    });
    // Five ops per cell per round in every block.
    let want = blocks as u64 * rounds as u64 * cells.len() as u64 * 5;
    assert_eq!(seen.1.load(Ordering::Relaxed), want);
}

#[test]
fn a_block_nothing_listens_to_gets_hooks_off() {
    let d = Device::test_small();
    assert!(snapshots(&d).iter().all(|&h| h == Hooks::OFF));

    // Members that want no per-thread hook leave the snapshot off.
    for wants in
        [Wants { blocks: true, ..Wants::default() }, Wants { samples: true, ..Wants::default() }]
    {
        let d = Device::test_small();
        let _attached = d.observe(Arc::new(Accesses(wants, AtomicU64::new(0))));
        assert!(snapshots(&d).iter().all(|&h| h == Hooks::OFF), "{wants:?}");
    }

    // Each per-thread want turns it on, for every block of every shape.
    for wants in [
        Wants { accesses: true, ..Wants::default() },
        Wants { atomics: true, ..Wants::default() },
        Wants { charges: true, ..Wants::default() },
    ] {
        let d = Device::test_small();
        let _attached = d.observe(Arc::new(Accesses(wants, AtomicU64::new(0))));
        let got = snapshots(&d);
        assert_eq!(got.len(), 8 + 10 + 4);
        assert!(got.iter().all(|&h| h != Hooks::OFF), "{wants:?}");
    }
}

#[test]
fn hooks_read_outside_any_block_are_off() {
    assert_eq!(Hooks::current(), Hooks::OFF);
    let d = Device::test_small();
    let seen = Arc::new(Accesses(Wants { accesses: true, ..Wants::default() }, AtomicU64::new(0)));
    let _attached = d.observe(seen.clone());
    let cells = atomic_u32_array(1, |_| 0);
    ecl_gpusim::pool::with_policy(ecl_gpusim::DispatchPolicy::sequential(), || {
        launch_flat(&d, LaunchConfig::new(1, 1), |t| {
            assert_eq!(Hooks::current(), t.hooks);
            assert_ne!(t.hooks, Hooks::OFF);
        });
    });
    // The block's scope ended: the host is outside any block again, and
    // a host access reports nothing.
    assert_eq!(Hooks::current(), Hooks::OFF);
    cells[0].store(1, Hooks::current());
    assert_eq!(seen.1.load(Ordering::Relaxed), 0);
}
