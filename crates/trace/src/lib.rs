//! Low-overhead structured event tracing for the suite.
//!
//! Where `ecl-profiling` answers "how many" (the paper's §3 counters),
//! this crate answers "when": kernel launches, block lifetimes, atomic
//! outcomes, and per-round algorithm phases are recorded as 24-byte
//! packed events into lock-free per-thread ring buffers, drained into
//! epoch [`Snapshot`]s, persisted as versioned `.etr` binary captures,
//! and exported to Chrome `trace_event` JSON (Perfetto-loadable) or a
//! terminal timeline.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled is free.** The simulator reaches the tracer as one of
//!    the observers attached to a device ([`ecl_gpusim::observe`]);
//!    on a device with none, a per-thread hook site costs one
//!    thread-local load and a host-side one a relaxed load; the
//!    overhead benchmark asserts the disabled path is within noise.
//! 2. **Enabled never blocks the hot path.** [`Tracer::record`] is a
//!    thread-local slot lookup plus three relaxed stores into a ring
//!    owned by the calling thread — no locks, no allocation. Full
//!    rings overwrite their oldest events and count the drops rather
//!    than stall (the perturbation concern the paper raises about
//!    manual instrumentation in §3).
//! 3. **Captures are robust artifacts.** The `.etr` reader treats the
//!    file as untrusted: truncation and corruption produce
//!    `io::Error`s, never panics or unbounded allocations — the same
//!    failure-injection discipline as `ecl-graph::io`.
//!
//! Typical capture flow:
//!
//! ```
//! use std::sync::Arc;
//! use ecl_gpusim::{observe, Device};
//! use ecl_trace::{sink, ClockMode, EventKind, Tracer};
//!
//! sink::install(Arc::new(Tracer::with_clock(ClockMode::Logical)));
//! let device = Device::test_small(); // starts with the tracer attached
//! observe::phase_span(&device, "compute", || observe::round(&device, 7));
//! let tracer = sink::uninstall().unwrap();
//! let snap = tracer.snapshot();
//! assert_eq!(snap.of_kind(EventKind::Round).count(), 1);
//!
//! let mut bytes = Vec::new();
//! ecl_trace::write_snapshot(&mut bytes, &snap).unwrap();
//! let back = ecl_trace::read_snapshot(&mut bytes.as_slice()).unwrap();
//! assert_eq!(back.events, snap.events);
//! ```

pub mod chrome;
pub mod event;
pub mod format;
pub mod ring;
pub mod sink;
pub mod snapshot;
pub mod timeline;

pub use chrome::to_chrome_json;
pub use event::{Event, EventKind};
pub use format::{read_snapshot, write_snapshot, MAGIC, VERSION};
pub use ring::{ClockMode, Tracer, TracerConfig};
pub use snapshot::Snapshot;
pub use timeline::render;
