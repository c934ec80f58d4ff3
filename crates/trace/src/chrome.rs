//! Chrome `trace_event` JSON export.
//!
//! The output loads in Perfetto (ui.perfetto.dev) and `chrome://tracing`:
//! phase and block intervals become "B"/"E" duration events on one
//! track per recording thread, everything else becomes "i" instant
//! events. JSON is emitted by hand — the suite carries no serde —
//! with strings escaped by [`ecl_profiling::json::escape`].

use std::fmt::Write as _;

use ecl_profiling::json;

use crate::event::{Event, EventKind};
use crate::ring::ClockMode;
use crate::snapshot::Snapshot;

/// Renders `snap` as a Chrome `trace_event` JSON object.
pub fn to_chrome_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for e in &snap.events {
        let mut emit = |entry: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n  ");
            out.push_str(&entry);
        };
        match e.kind() {
            Some(EventKind::PhaseStart) => {
                emit(duration(snap, e, "B", phase_name(snap, e)));
            }
            Some(EventKind::PhaseEnd) => {
                emit(duration(snap, e, "E", phase_name(snap, e)));
            }
            Some(EventKind::BlockStart) => {
                emit(duration(snap, e, "B", format!("block-{}", e.block)));
            }
            Some(EventKind::BlockEnd) => {
                emit(duration(snap, e, "E", format!("block-{}", e.block)));
            }
            _ => {
                let name = EventKind::from_raw(e.kind)
                    .map(|k| k.name().to_string())
                    .unwrap_or_else(|| format!("kind-{}", e.kind));
                emit(instant(snap, e, &name));
            }
        }
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"clock\":{},\"droppedOverwritten\":{},\"droppedUnslotted\":{},\"threads\":{}}}}}",
        match snap.clock {
            ClockMode::Wall => "\"wall-ns\"",
            ClockMode::Logical => "\"logical\"",
        },
        snap.dropped_overwritten,
        snap.dropped_unslotted,
        snap.threads,
    );
    out
}

fn phase_name(snap: &Snapshot, e: &Event) -> String {
    snap.string(e.payload).map(str::to_string).unwrap_or_else(|| format!("phase-{}", e.payload))
}

/// Timestamp in the microseconds Chrome expects (wall clock), or the
/// raw sequence number (logical clock — relative order is what matters).
fn ts_us(snap: &Snapshot, e: &Event) -> f64 {
    match snap.clock {
        ClockMode::Wall => e.ts as f64 / 1000.0,
        ClockMode::Logical => e.ts as f64,
    }
}

fn duration(snap: &Snapshot, e: &Event, ph: &str, name: String) -> String {
    format!(
        "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
        json::escape(&name),
        ts_us(snap, e),
        e.thread,
    )
}

fn instant(snap: &Snapshot, e: &Event, name: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{\"block\":{},\"lane\":{},\"payload\":{}}}}}",
        json::escape(name),
        ts_us(snap, e),
        e.thread,
        e.block,
        e.lane,
        e.payload,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::ring::{Tracer, TracerConfig};
    use ecl_gpusim::observe::Observer;

    fn capture() -> Snapshot {
        let t =
            Tracer::new(TracerConfig { slots: 2, events_per_slot: 64, clock: ClockMode::Logical });
        t.record(EventKind::KernelLaunch, u32::MAX, 0, 4);
        t.phase_start("compute \"hot\"");
        t.record(EventKind::BlockStart, 2, 0, 32);
        t.record(EventKind::AtomicCasFailed, 2, 7, 0);
        t.record(EventKind::BlockEnd, 2, 0, 32);
        t.phase_end("compute \"hot\"");
        t.snapshot()
    }

    #[test]
    fn emits_balanced_duration_events() {
        let json = to_chrome_json(&capture());
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2); // phase + block
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 2); // launch + CAS
        assert!(json.contains("kernel-launch"));
        assert!(json.contains("block-2"));
        assert!(json.contains("atomic-cas-failed"));
    }

    #[test]
    fn escapes_phase_names() {
        let json = to_chrome_json(&capture());
        assert!(json.contains("compute \\\"hot\\\""));
        // The parser reads the original name back from both phase events.
        let doc = json::parse(&json).unwrap();
        let events = doc.get("traceEvents").and_then(json::Value::as_arr).unwrap();
        let named = |e: &&json::Value| {
            e.get("name").and_then(json::Value::as_str) == Some("compute \"hot\"")
        };
        assert_eq!(events.iter().filter(named).count(), 2);
    }

    #[test]
    fn structure_is_json_parseable() {
        let doc = json::parse(&to_chrome_json(&capture())).unwrap();
        assert_eq!(doc.get("traceEvents").and_then(json::Value::as_arr).unwrap().len(), 6);
        assert_eq!(doc.get("displayTimeUnit").and_then(json::Value::as_str), Some("ns"));
        let other = doc.get("otherData").unwrap();
        assert_eq!(other.get("clock").and_then(json::Value::as_str), Some("logical"));
        assert_eq!(other.get("droppedOverwritten").and_then(json::Value::as_f64), Some(0.0));
    }

    #[test]
    fn unknown_kinds_become_named_instants() {
        let mut s = capture();
        s.events[0].kind = 500;
        let json = to_chrome_json(&s);
        assert!(json.contains("kind-500"));
    }
}
