//! The calling thread's ambient context: the request (`ecl-serve`
//! correlation id, 0 = none) and the shard (`ecl-shard`'s simulated
//! device; none in a single-pool run) it works for. Launch samples
//! carry both. The serving layer enters the request around a job and
//! the pool re-enters it on every worker that claims the job's blocks;
//! `ecl-shard` enters each shard around its launches. Every *switch*
//! is reported to the observers, which keeps each per-thread trace
//! stream attributable.

use std::cell::Cell;

use crate::observe::{self, CtxSwitch};

#[derive(Clone, Copy, PartialEq, Eq)]
struct Ctx {
    req: u64,
    shard: Option<u32>,
}

thread_local! {
    static CURRENT: Cell<Ctx> = const { Cell::new(Ctx { req: 0, shard: None }) };
}

/// The request the calling thread is working for (0 = none).
#[inline]
pub fn request() -> u64 {
    CURRENT.with(Cell::get).req
}

/// The shard the calling thread is working for (0 also stands for a
/// single-pool run, which never enters a shard).
#[inline]
pub fn shard() -> u32 {
    CURRENT.with(Cell::get).shard.unwrap_or(0)
}

/// Reports the fields that differ between `from` and `to`.
fn switch(from: Ctx, to: Ctx) {
    if from.req != to.req {
        observe::context(CtxSwitch::Request(to.req));
    }
    if from.shard != to.shard {
        observe::context(CtxSwitch::Shard(to.shard));
    }
}

/// RAII scope of one context change; restores the whole previous
/// context on drop, so guards must drop in reverse order of entry (as
/// scopes do).
pub struct CtxGuard {
    prev: Ctx,
}

impl CtxGuard {
    fn enter(f: impl FnOnce(&mut Ctx)) -> CtxGuard {
        let prev = CURRENT.with(Cell::get);
        let mut next = prev;
        f(&mut next);
        CURRENT.with(|c| c.set(next));
        switch(prev, next);
        CtxGuard { prev }
    }

    /// Enters request `req` on the calling thread.
    pub fn request(req: u64) -> CtxGuard {
        Self::enter(|c| c.req = req)
    }

    /// Enters shard `shard` on the calling thread.
    pub fn shard(shard: u32) -> CtxGuard {
        Self::enter(|c| c.shard = Some(shard))
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let cur = CURRENT.with(|c| c.replace(self.prev));
        switch(cur, self.prev);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn defaults_are_no_request_and_shard_zero() {
        assert_eq!((request(), shard()), (0, 0));
    }

    #[test]
    fn guards_nest_and_restore() {
        {
            let _a = CtxGuard::request(7);
            let _s = CtxGuard::shard(2);
            assert_eq!((request(), shard()), (7, 2));
            {
                let _b = CtxGuard::request(9);
                let _t = CtxGuard::shard(5);
                assert_eq!((request(), shard()), (9, 5));
            }
            assert_eq!((request(), shard()), (7, 2));
        }
        assert_eq!((request(), shard()), (0, 0));
    }

    #[test]
    fn guards_restore_across_panic() {
        let _outer = CtxGuard::request(3);
        let _shard = CtxGuard::shard(1);
        let r = std::panic::catch_unwind(|| {
            let _inner = CtxGuard::request(4);
            let _s = CtxGuard::shard(3);
            panic!("boom");
        });
        assert!(r.is_err());
        assert_eq!((request(), shard()), (3, 1));
    }

    /// Records the switches it receives.
    #[derive(Default)]
    struct Switches(Mutex<Vec<CtxSwitch>>);

    impl observe::Observer for Switches {
        fn context(&self, switch: CtxSwitch) {
            self.0.lock().unwrap().push(switch);
        }
    }

    #[test]
    fn only_switches_are_reported() {
        // Inside a block, switches reach the observers of the block's
        // device.
        let d = crate::Device::test_small();
        let seen = Arc::new(Switches::default());
        let _attached = d.observe(seen.clone());
        crate::launch_flat(&d, crate::LaunchConfig::new(1, 1), |_| {
            let _g = CtxGuard::request(0xAABB_CCDD_1122_3344);
            // Re-entering the same request is not a switch.
            let _h = CtxGuard::request(0xAABB_CCDD_1122_3344);
            let _s = CtxGuard::shard(0);
            // Neither is re-entering the same shard; shard 0 entered
            // differs from no shard.
            let _t = CtxGuard::shard(0);
        });
        use CtxSwitch::{Request, Shard};
        assert_eq!(
            *seen.0.lock().unwrap(),
            [Request(0xAABB_CCDD_1122_3344), Shard(Some(0)), Shard(None), Request(0)]
        );
    }
}
