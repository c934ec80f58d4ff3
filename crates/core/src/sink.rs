//! [`Sink<T>`]: a publish-and-retire slot for one `Arc<T>`. The
//! simulator's one observer slot (`ecl_gpusim::observe`) is its only
//! `static` instance: a `Sink<ObserverList>` whose payload is the
//! immutable list of installed observers, republished on every install
//! and uninstall.
//!
//! Hot path ([`Sink::is_enabled`], [`Sink::get`]): one `Relaxed`
//! `AtomicBool` load — with nothing installed the caller pays a
//! single never-taken branch. When enabled, one `Acquire` pointer
//! load and a dereference; no lock, no reference count.
//!
//! Safety model: the slot publishes a raw pointer into an `Arc<T>` it
//! owns. Replacing or uninstalling the payload *retires* it — the
//! `Arc` stays on a list the slot keeps until it is itself dropped
//! (never, for a `static`) — so a pointer loaded by a racing reader
//! cannot dangle. The leak is one `Arc` per `install` call — a
//! process republishes its observer list a handful of times — traded
//! for wait-free reads with no reclamation protocol. Publication is
//! `SeqCst` (disable → swap pointer → enable, all under the list's
//! mutex), the guard `Relaxed`, the pointer load `Acquire`; `ecl-mc`'s
//! `sink-publish` harness explores this protocol with a list payload,
//! and its `sink-free-on-replace` and `observer-list-free-on-republish`
//! fixtures show what retiring prevents.

use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A process-global observer slot holding at most one `Arc<T>`.
pub struct Sink<T> {
    enabled: AtomicBool,
    ptr: AtomicPtr<T>,
    /// Every payload ever published, newest last, kept alive as long
    /// as the slot so racing readers never dereference a freed `T`.
    /// Bounded by the number of `install` calls. The mutex also
    /// serializes `install` / `uninstall`.
    retired: Mutex<Vec<Arc<T>>>,
}

impl<T> Sink<T> {
    /// An empty, disabled slot.
    pub const fn new() -> Self {
        Sink {
            enabled: AtomicBool::new(false),
            ptr: AtomicPtr::new(std::ptr::null_mut()),
            retired: Mutex::new(Vec::new()),
        }
    }

    fn retired(&self) -> MutexGuard<'_, Vec<Arc<T>>> {
        // The list is only ever pushed to, so a panic under the lock
        // poisons nothing worth refusing.
        self.retired.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes `payload` and enables the slot. A previously
    /// installed payload stops being handed out and is retired.
    pub fn install(&self, payload: Arc<T>) {
        let mut retired = self.retired();
        self.enabled.store(false, Ordering::SeqCst);
        let ptr = Arc::as_ptr(&payload).cast_mut();
        retired.push(payload);
        self.ptr.store(ptr, Ordering::SeqCst);
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Disables the slot and detaches the payload, returning it. Its
    /// storage stays alive (retired) in case another thread is still
    /// reading through [`Sink::get`].
    pub fn uninstall(&self) -> Option<Arc<T>> {
        let retired = self.retired();
        self.enabled.store(false, Ordering::SeqCst);
        let was = self.ptr.swap(std::ptr::null_mut(), Ordering::SeqCst);
        // A published pointer is always the newest retired payload.
        if was.is_null() {
            None
        } else {
            retired.last().cloned()
        }
    }

    /// Whether a payload is installed. The hot-path guard: a single
    /// relaxed load.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The installed payload, if any. A reader racing an `install` or
    /// `uninstall` may still get the previous payload; it is never
    /// handed a freed one.
    #[inline(always)]
    pub fn get(&self) -> Option<&T> {
        if !self.is_enabled() {
            return None;
        }
        let ptr = self.ptr.load(Ordering::Acquire);
        // SAFETY: a non-null `ptr` came from `Arc::as_ptr` of a
        // payload that `install` pushed onto `retired` before
        // publishing it; `retired` is never popped and only dropped
        // together with `self` — which the returned borrow of `self`
        // outlasts. Shared access to `T` from any thread is sound
        // because `Sink<T>: Sync` only holds (through
        // `Mutex<Vec<Arc<T>>>`) when `T: Send + Sync`.
        unsafe { ptr.as_ref() }
    }
}

impl<T> Default for Sink<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The lifecycle test of the slot; `ecl_gpusim::observe` only tests
    // what is specific to its observer list.
    #[test]
    fn sink_lifecycle() {
        static SINK: Sink<u32> = Sink::new();
        assert!(!SINK.is_enabled());
        assert!(SINK.get().is_none()); // nothing installed: a no-op
        assert!(SINK.uninstall().is_none());

        let a = Arc::new(1);
        SINK.install(Arc::clone(&a));
        assert!(SINK.is_enabled());
        assert_eq!(SINK.get(), Some(&1));

        // Replacing redirects readers; the old payload stays valid
        // for a reader that loaded it before the swap.
        let stale = SINK.get().expect("installed");
        SINK.install(Arc::new(2));
        assert_eq!(SINK.get(), Some(&2));
        assert_eq!(*stale, 1);

        let back = SINK.uninstall().expect("payload was installed");
        assert_eq!(*back, 2);
        assert!(!SINK.is_enabled());
        assert!(SINK.get().is_none()); // detached: a no-op again
        drop(back);
        assert_eq!(*stale, 1);

        // Re-install after uninstall works and returns the same Arc.
        SINK.install(Arc::clone(&a));
        let back = SINK.uninstall().expect("payload was installed");
        assert!(Arc::ptr_eq(&back, &a));

        // A local (non-static) slot frees what it retired.
        let held = Arc::strong_count(&a);
        let local = Sink::new();
        local.install(Arc::clone(&a));
        local.install(Arc::new(3));
        assert!(Arc::strong_count(&a) > held);
        drop(local);
        assert_eq!(Arc::strong_count(&a), held);
    }
}
