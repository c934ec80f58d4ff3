//! The `.etr` binary capture format.
//!
//! Little-endian throughout:
//!
//! ```text
//! magic    8  b"ECLTRC01"
//! version  u16  (currently 1)
//! clock    u16  (0 = wall ns, 1 = logical)
//! sections u32  count
//! then per section: tag u32, len u64, `len` bytes of body
//! ```
//!
//! Known section tags (unknown tags are skipped, so newer writers stay
//! readable):
//!
//! - `HDR1` — dropped_overwritten u64, dropped_unslotted u64,
//!   threads u32, reserved u32
//! - `STR1` — count u32, then per string: len u32 + UTF-8 bytes
//! - `EVT1` — count u64, then count x 24-byte packed events
//!
//! The reader follows the same failure-injection discipline as
//! `ecl-graph::io`: every malformed, truncated, or hostile input
//! yields `io::ErrorKind::InvalidData` (or `UnexpectedEof`) — never a
//! panic, never an unbounded allocation.

use std::io::{self, Read, Write};

use crate::event::Event;
use crate::ring::ClockMode;
use crate::snapshot::Snapshot;

/// File magic: "ECL trace" plus an on-disk generation digit.
pub const MAGIC: [u8; 8] = *b"ECLTRC01";
/// Current format version.
pub const VERSION: u16 = 1;

const TAG_HDR: u32 = u32::from_le_bytes(*b"HDR1");
const TAG_STR: u32 = u32::from_le_bytes(*b"STR1");
const TAG_EVT: u32 = u32::from_le_bytes(*b"EVT1");

/// Cap on speculative preallocation from untrusted length fields, in
/// elements. Larger claims still load — growth is then driven by
/// actual bytes read, so a corrupt length cannot OOM the reader.
const PREALLOC_CAP: usize = 1 << 20;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn read_exact_array<const N: usize, R: Read>(r: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    Ok(u16::from_le_bytes(read_exact_array(r)?))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    Ok(u32::from_le_bytes(read_exact_array(r)?))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    Ok(u64::from_le_bytes(read_exact_array(r)?))
}

/// Serializes a snapshot to `w` in `.etr` format.
pub fn write_snapshot<W: Write>(w: &mut W, snap: &Snapshot) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&snap.clock.raw().to_le_bytes())?;
    w.write_all(&3u32.to_le_bytes())?;

    // HDR1
    let mut hdr = Vec::with_capacity(24);
    hdr.extend_from_slice(&snap.dropped_overwritten.to_le_bytes());
    hdr.extend_from_slice(&snap.dropped_unslotted.to_le_bytes());
    hdr.extend_from_slice(&snap.threads.to_le_bytes());
    hdr.extend_from_slice(&0u32.to_le_bytes());
    write_section(w, TAG_HDR, &hdr)?;

    // STR1
    let mut strs = Vec::new();
    let count =
        u32::try_from(snap.strings.len()).map_err(|_| bad("string table exceeds u32 entries"))?;
    strs.extend_from_slice(&count.to_le_bytes());
    for s in &snap.strings {
        let len = u32::try_from(s.len()).map_err(|_| bad("string exceeds u32 bytes"))?;
        strs.extend_from_slice(&len.to_le_bytes());
        strs.extend_from_slice(s.as_bytes());
    }
    write_section(w, TAG_STR, &strs)?;

    // EVT1
    let mut evts = Vec::with_capacity(8 + snap.events.len() * 24);
    evts.extend_from_slice(&(snap.events.len() as u64).to_le_bytes());
    for e in &snap.events {
        let (w0, w1, w2) = e.to_disk_words();
        evts.extend_from_slice(&w0.to_le_bytes());
        evts.extend_from_slice(&w1.to_le_bytes());
        evts.extend_from_slice(&w2.to_le_bytes());
    }
    write_section(w, TAG_EVT, &evts)?;
    Ok(())
}

fn write_section<W: Write>(w: &mut W, tag: u32, body: &[u8]) -> io::Result<()> {
    w.write_all(&tag.to_le_bytes())?;
    w.write_all(&(body.len() as u64).to_le_bytes())?;
    w.write_all(body)
}

/// Deserializes a snapshot from `r`, validating structure throughout.
/// Malformed input is an `InvalidData`/`UnexpectedEof` error — this
/// function never panics on hostile bytes.
pub fn read_snapshot<R: Read>(r: &mut R) -> io::Result<Snapshot> {
    let magic = read_exact_array::<8, _>(r)?;
    if magic != MAGIC {
        return Err(bad(format!("bad magic {magic:02x?}, expected {MAGIC:02x?}")));
    }
    let version = read_u16(r)?;
    if version != VERSION {
        return Err(bad(format!("unsupported .etr version {version} (reader supports {VERSION})")));
    }
    let clock = ClockMode::from_raw(read_u16(r)?).ok_or_else(|| bad("unknown clock mode"))?;
    let sections = read_u32(r)?;
    // A section costs ≥ 12 bytes on disk; anything claiming more
    // sections than a multi-GB file could hold is corrupt.
    if sections > 1 << 20 {
        return Err(bad(format!("implausible section count {sections}")));
    }

    let mut snap = Snapshot {
        events: Vec::new(),
        dropped_overwritten: 0,
        dropped_unslotted: 0,
        threads: 0,
        strings: Vec::new(),
        clock,
    };
    let mut saw_evt = false;

    for _ in 0..sections {
        let tag = read_u32(r)?;
        let len = read_u64(r)?;
        let len_usize = usize::try_from(len).map_err(|_| bad("section too large"))?;
        match tag {
            TAG_HDR => {
                if len != 24 {
                    return Err(bad(format!("HDR1 section is {len} bytes, expected 24")));
                }
                snap.dropped_overwritten = read_u64(r)?;
                snap.dropped_unslotted = read_u64(r)?;
                snap.threads = read_u32(r)?;
                let _reserved = read_u32(r)?;
            }
            TAG_STR => {
                let body = read_body(r, len_usize)?;
                snap.strings = parse_strings(&body)?;
            }
            TAG_EVT => {
                let body = read_body(r, len_usize)?;
                snap.events = parse_events(&body)?;
                saw_evt = true;
            }
            _ => {
                // Unknown section from a newer writer: skip its body.
                skip(r, len)?;
            }
        }
    }
    if !saw_evt {
        return Err(bad("capture has no EVT1 section"));
    }
    Ok(snap)
}

/// Reads exactly `len` bytes, growing from a capped initial
/// allocation so a lying length field cannot reserve gigabytes.
fn read_body<R: Read>(r: &mut R, len: usize) -> io::Result<Vec<u8>> {
    let mut body = Vec::with_capacity(len.min(PREALLOC_CAP));
    let got = r.take(len as u64).read_to_end(&mut body)?;
    if got != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("section truncated: {got} of {len} bytes"),
        ));
    }
    Ok(body)
}

fn skip<R: Read>(r: &mut R, len: u64) -> io::Result<()> {
    let skipped = io::copy(&mut r.take(len), &mut io::sink())?;
    if skipped != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("unknown section truncated: {skipped} of {len} bytes"),
        ));
    }
    Ok(())
}

fn parse_strings(body: &[u8]) -> io::Result<Vec<String>> {
    let mut r = body;
    let count = read_u32(&mut r)? as usize;
    let mut strings = Vec::with_capacity(count.min(PREALLOC_CAP));
    for i in 0..count {
        let len = read_u32(&mut r)? as usize;
        if r.len() < len {
            return Err(bad(format!("string {i} claims {len} bytes, {} remain", r.len())));
        }
        let (bytes, rest) = r.split_at(len);
        let s =
            std::str::from_utf8(bytes).map_err(|e| bad(format!("string {i} is not UTF-8: {e}")))?;
        strings.push(s.to_string());
        r = rest;
    }
    if !r.is_empty() {
        return Err(bad(format!("{} trailing bytes after string table", r.len())));
    }
    Ok(strings)
}

fn parse_events(body: &[u8]) -> io::Result<Vec<Event>> {
    let mut r = body;
    let count = read_u64(&mut r)?;
    let need = count.checked_mul(24).ok_or_else(|| bad("event count overflows"))?;
    if r.len() as u64 != need {
        return Err(bad(format!(
            "EVT1 claims {count} events ({need} bytes) but holds {}",
            r.len()
        )));
    }
    let count = count as usize;
    let mut events = Vec::with_capacity(count.min(PREALLOC_CAP));
    for _ in 0..count {
        let w0 = read_u64(&mut r)?;
        let w1 = read_u64(&mut r)?;
        let w2 = read_u64(&mut r)?;
        events.push(Event::from_disk_words(w0, w1, w2));
    }
    Ok(events)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::ring::{Tracer, TracerConfig};
    use ecl_gpusim::observe::Observer;

    fn sample() -> Snapshot {
        let t =
            Tracer::new(TracerConfig { slots: 2, events_per_slot: 32, clock: ClockMode::Logical });
        t.record(EventKind::KernelLaunch, u32::MAX, 0, 16);
        t.phase_start("init");
        t.record(EventKind::AtomicUpdated, 5, 3, 0);
        t.phase_end("init");
        t.round(1);
        t.snapshot()
    }

    fn to_bytes(s: &Snapshot) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(&mut buf, s).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let s = sample();
        let back = read_snapshot(&mut to_bytes(&s).as_slice()).unwrap();
        assert_eq!(back.events, s.events);
        assert_eq!(back.strings, s.strings);
        assert_eq!(back.dropped_overwritten, s.dropped_overwritten);
        assert_eq!(back.dropped_unslotted, s.dropped_unslotted);
        assert_eq!(back.threads, s.threads);
        assert_eq!(back.clock, s.clock);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[0] ^= 0xFF;
        let err = read_snapshot(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[8] = 99;
        let err = read_snapshot(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = to_bytes(&sample());
        for cut in 0..bytes.len() {
            let res = read_snapshot(&mut bytes[..cut].as_ref());
            assert!(res.is_err(), "no error at cut {cut}/{}", bytes.len());
        }
        assert!(read_snapshot(&mut bytes.as_slice()).is_ok());
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let s = sample();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&s.clock.raw().to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        // An unknown section a future writer might emit.
        bytes.extend_from_slice(&u32::from_le_bytes(*b"ZZZ9").to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(b"beef");
        // Followed by a valid EVT1.
        let mut evt = Vec::new();
        evt.extend_from_slice(&1u64.to_le_bytes());
        let (w0, w1, w2) = s.events[0].to_disk_words();
        evt.extend_from_slice(&w0.to_le_bytes());
        evt.extend_from_slice(&w1.to_le_bytes());
        evt.extend_from_slice(&w2.to_le_bytes());
        bytes.extend_from_slice(&TAG_EVT.to_le_bytes());
        bytes.extend_from_slice(&(evt.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&evt);

        let back = read_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.events, vec![s.events[0]]);
    }

    #[test]
    fn lying_lengths_do_not_overallocate() {
        // EVT1 claiming u64::MAX/24 events with an empty body must
        // error, not reserve memory.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&TAG_EVT.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_snapshot(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn missing_event_section_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let err = read_snapshot(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("EVT1"));
    }
}
