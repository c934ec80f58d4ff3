//! `.etr` format robustness: property-based round-trips, a full
//! truncation sweep, and header-corruption fuzzing. The contract —
//! identical to `ecl-graph::io`'s — is that hostile bytes produce
//! `io::Error`s, never panics and never unbounded allocations.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use ecl_gpusim::observe::Observer;
use ecl_trace::{read_snapshot, write_snapshot, ClockMode, EventKind, Tracer, TracerConfig, MAGIC};

/// Builds a capture with `spec`-driven contents on a logical clock.
fn capture(kinds: &[u16], phases: &[String]) -> ecl_trace::Snapshot {
    let t =
        Tracer::new(TracerConfig { slots: 4, events_per_slot: 1 << 12, clock: ClockMode::Logical });
    for name in phases {
        t.phase_start(name);
    }
    for (i, &k) in kinds.iter().enumerate() {
        let kind = EventKind::from_raw(k % 10 + 1).unwrap();
        t.record(kind, i as u32, (i % 7) as u16, i as u32 ^ 0xA5A5);
    }
    for name in phases {
        t.phase_end(name);
    }
    t.snapshot()
}

fn to_bytes(snap: &ecl_trace::Snapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    write_snapshot(&mut buf, snap).expect("serialize to Vec cannot fail");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn roundtrip_is_lossless(
        kinds in proptest::collection::vec(0u16..20, 0..300),
        nphases in 0usize..6,
    ) {
        let phases: Vec<String> = (0..nphases).map(|i| format!("phase-{i}")).collect();
        let snap = capture(&kinds, &phases);
        let back = read_snapshot(&mut to_bytes(&snap).as_slice())
            .expect("own output must read back");
        prop_assert_eq!(&back.events, &snap.events);
        prop_assert_eq!(&back.strings, &snap.strings);
        prop_assert_eq!(back.dropped_overwritten, snap.dropped_overwritten);
        prop_assert_eq!(back.dropped_unslotted, snap.dropped_unslotted);
        prop_assert_eq!(back.threads, snap.threads);
        prop_assert_eq!(back.clock, snap.clock);
    }

    #[test]
    fn truncation_always_errors_never_panics(
        kinds in proptest::collection::vec(0u16..20, 1..100),
    ) {
        let snap = capture(&kinds, &["p".to_string()]);
        let bytes = to_bytes(&snap);
        // Every proper prefix must fail cleanly.
        for cut in 0..bytes.len() {
            let res = std::panic::catch_unwind(|| read_snapshot(&mut bytes[..cut].as_ref()));
            match res {
                Ok(inner) => prop_assert!(inner.is_err(), "cut {cut} of {} parsed", bytes.len()),
                Err(_) => prop_assert!(false, "cut {cut} of {} panicked", bytes.len()),
            }
        }
        prop_assert!(read_snapshot(&mut bytes.as_slice()).is_ok());
    }

    #[test]
    fn header_corruption_never_panics(
        kinds in proptest::collection::vec(0u16..20, 1..50),
        pos in 0usize..64,
        xor in 1u8..255,
    ) {
        let snap = capture(&kinds, &[]);
        let mut bytes = to_bytes(&snap);
        let pos = pos % bytes.len().clamp(1, 64);
        bytes[pos] ^= xor;
        // A flipped byte in the magic/header/section framing either
        // fails cleanly or — if it only touched event payload bits —
        // parses to some snapshot. It must never panic.
        let res = std::panic::catch_unwind(|| read_snapshot(&mut bytes.as_slice()));
        prop_assert!(res.is_ok(), "corruption at {pos} (xor {xor:#x}) panicked");
    }

    #[test]
    fn arbitrary_garbage_never_panics(
        bytes in proptest::collection::vec(0u8..255, 0..200),
        with_magic in 0u8..2,
    ) {
        let mut bytes = bytes;
        if with_magic == 1 && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(&MAGIC);
        }
        let res = std::panic::catch_unwind(|| read_snapshot(&mut bytes.as_slice()));
        prop_assert!(res.is_ok(), "garbage input panicked");
    }
}
