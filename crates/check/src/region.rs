//! Named memory regions and the benign-race allowlist.
//!
//! The race detector works on raw cell addresses; regions give
//! findings their human names (`cc.nstat[42]` instead of a hex
//! address) and carry the *benign allowlist attribute*: a region
//! registered with [`CheckedSlice::benign`] (or
//! [`register_benign_region`]) downgrades race findings on its cells
//! to *suppressed* — still counted and rendered, but never fatal.
//! This is how the ECL kernels' intentional racy idioms (monotonic
//! label updates, pointer-jumping path compression, idempotent
//! resets) pass the checker while a genuinely unintended race on any
//! other array still fails the suite.
//!
//! Registration is a no-op when no check session is attached to the
//! device, so kernels can declare their regions unconditionally.

use std::ops::Deref;
use std::sync::{Arc, Weak};

use ecl_gpusim::Device;

use crate::checker::CheckerShared;

/// Metadata of one registered region.
#[derive(Clone, Debug)]
pub struct RegionInfo {
    /// First byte of the region.
    pub base: usize,
    /// One past the last byte.
    pub end: usize,
    /// Element size (for index computation in findings).
    pub elem: usize,
    /// Report name, e.g. `"cc.nstat"`.
    pub name: String,
    /// `Some(reason)` marks the region benign: race findings on it
    /// are suppressed, with the reason echoed in the report.
    pub benign: Option<String>,
}

impl RegionInfo {
    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: usize) -> bool {
        self.base <= addr && addr < self.end
    }

    /// Element index of `addr` within the region.
    pub fn index_of(&self, addr: usize) -> usize {
        (addr - self.base) / self.elem.max(1)
    }
}

/// Registration receipt: unregisters the region from the session it
/// was registered with (if that session is still running) when
/// dropped. Holding one does not borrow the slice — the caller keeps
/// the backing storage alive for the handle's lifetime; a stale region
/// would only mislabel findings, never cause unsafety.
#[derive(Debug)]
pub struct RegionHandle {
    base: usize,
    checker: Option<Weak<CheckerShared>>,
}

impl Drop for RegionHandle {
    fn drop(&mut self) {
        if let Some(checker) = self.checker.as_ref().and_then(Weak::upgrade) {
            checker.unregister_region(self.base);
        }
    }
}

fn register<T>(device: &Device, name: &str, slice: &[T], benign: Option<&str>) -> RegionHandle {
    let base = slice.as_ptr() as usize;
    let Some(checker) = device.observers().find::<CheckerShared>() else {
        return RegionHandle { base, checker: None };
    };
    checker.register_region(RegionInfo {
        base,
        end: base + std::mem::size_of_val(slice),
        elem: std::mem::size_of::<T>(),
        name: name.to_string(),
        benign: benign.map(str::to_string),
    });
    RegionHandle { base, checker: Some(Arc::downgrade(&checker)) }
}

/// Registers `slice` as a named region with the session checking
/// `device`, for findings attribution. Useful when the slice lives in a
/// struct that outlives the borrow ([`CheckedSlice`] is the view API).
pub fn register_region<T>(device: &Device, name: &str, slice: &[T]) -> RegionHandle {
    register(device, name, slice, None)
}

/// Registers `slice` as a *benign* region: race findings on it are
/// suppressed with `why` recorded as the justification.
pub fn register_benign_region<T>(
    device: &Device,
    name: &str,
    slice: &[T],
    why: &str,
) -> RegionHandle {
    register(device, name, slice, Some(why))
}

/// A checked view of a slice: registers the slice as a named region
/// on creation, unregisters on drop, and dereferences to the
/// underlying slice so kernel code keeps its indexing syntax
/// (`cells[i].load(t.hooks)` etc. — `&CheckedSlice<T>` coerces to `&[T]` at
/// helper-function boundaries).
#[derive(Debug)]
pub struct CheckedSlice<'a, T> {
    inner: &'a [T],
    _handle: RegionHandle,
}

impl<'a, T> CheckedSlice<'a, T> {
    /// A checked view of `slice` named `name`, registered with the
    /// session checking `device`.
    pub fn new(device: &Device, name: &str, slice: &'a [T]) -> Self {
        Self { inner: slice, _handle: register_region(device, name, slice) }
    }

    /// A checked view whose races are suppressed as benign, with
    /// `why` recorded as the justification (the allowlist attribute).
    pub fn benign(device: &Device, name: &str, slice: &'a [T], why: &str) -> Self {
        Self { inner: slice, _handle: register_benign_region(device, name, slice, why) }
    }
}

impl<T> Deref for CheckedSlice<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.inner
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn region_geometry() {
        let r = RegionInfo { base: 1000, end: 1016, elem: 4, name: "r".to_string(), benign: None };
        assert!(r.contains(1000) && r.contains(1015));
        assert!(!r.contains(999) && !r.contains(1016));
        assert_eq!(r.index_of(1008), 2);
    }

    #[test]
    fn checked_slice_derefs_without_session() {
        // No session on the device: registration is a no-op but the
        // view still works.
        let device = Device::test_small();
        let data = [1u32, 2, 3];
        let view = CheckedSlice::new(&device, "t.data", &data);
        assert_eq!(view[1], 2);
        assert_eq!(view.len(), 3);
        let benign = CheckedSlice::benign(&device, "t.data2", &data, "test");
        assert_eq!(benign.iter().sum::<u32>(), 6);
    }
}
