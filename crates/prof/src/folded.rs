//! pprof-style folded stacks (and an SVG flamegraph) from `ecl-trace`
//! captures.
//!
//! A folded-stack line is `frame;frame;frame <value>` — the format
//! `flamegraph.pl` and speedscope ingest directly. We derive stacks
//! from the trace event stream: `PhaseStart`/`PhaseEnd` events form
//! the host-side phase stack (phases nest; exclusive time is
//! attributed to the deepest open phase), and `BlockStart`/`BlockEnd`
//! pairs contribute simulated-block execution time under the phase
//! that was open when the block started, in a synthetic `<blocks>`
//! frame. Block time is cumulative across pool workers, so — exactly
//! like CPU-time flamegraphs — a `<blocks>` frame can be wider than
//! its parent's wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ecl_trace::{EventKind, Snapshot};

/// Root frame every stack hangs under.
const ROOT: &str = "run";
/// Synthetic frame for simulated-block execution time.
const BLOCKS_FRAME: &str = "<blocks>";

/// Converts a trace capture into folded stacks, one aggregated
/// `path value` line per unique stack, lexicographically sorted.
/// Values are nanoseconds (wall-clock captures) or event-sequence
/// spans (logical-clock captures).
pub fn to_folded(snap: &Snapshot) -> String {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    // Open host-side phases: (name, start_ts, time consumed by nested phases).
    let mut phase_stack: Vec<(String, u64, u64)> = Vec::new();
    // Open blocks: (thread, block) -> (start_ts, phase path at start).
    let mut open_blocks: BTreeMap<(u32, u32), (u64, String)> = BTreeMap::new();
    let last_ts = snap.events.last().map_or(0, |e| e.ts);

    let path_of = |stack: &[(String, u64, u64)]| -> String {
        let mut p = ROOT.to_string();
        for (name, _, _) in stack {
            p.push(';');
            p.push_str(name);
        }
        p
    };

    let close_phase =
        |stack: &mut Vec<(String, u64, u64)>, totals: &mut BTreeMap<String, u64>, end_ts: u64| {
            let path = path_of(stack);
            if let Some((_, start, child)) = stack.pop() {
                let dur = end_ts.saturating_sub(start);
                *totals.entry(path).or_insert(0) += dur.saturating_sub(child);
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur;
                }
            }
        };

    for e in &snap.events {
        if e.kind == EventKind::PhaseStart.raw() {
            let name = snap.string(e.payload).unwrap_or("?").to_string();
            phase_stack.push((name, e.ts, 0));
        } else if e.kind == EventKind::PhaseEnd.raw() {
            // Unwind to the matching name (tolerates a lost start/end).
            let name = snap.string(e.payload).unwrap_or("?");
            if phase_stack.iter().any(|(n, _, _)| n == name) {
                while let Some((top, _, _)) = phase_stack.last() {
                    let done = top == name;
                    close_phase(&mut phase_stack, &mut totals, e.ts);
                    if done {
                        break;
                    }
                }
            }
        } else if e.kind == EventKind::BlockStart.raw() {
            open_blocks.insert((e.thread, e.block), (e.ts, path_of(&phase_stack)));
        } else if e.kind == EventKind::BlockEnd.raw() {
            if let Some((start, path)) = open_blocks.remove(&(e.thread, e.block)) {
                *totals.entry(format!("{path};{BLOCKS_FRAME}")).or_insert(0) +=
                    e.ts.saturating_sub(start);
            }
        }
    }
    // Close phases left open at the end of the capture.
    while !phase_stack.is_empty() {
        close_phase(&mut phase_stack, &mut totals, last_ts);
    }

    let mut out = String::new();
    for (path, value) in &totals {
        if *value > 0 {
            let _ = writeln!(out, "{path} {value}");
        }
    }
    out
}

// ---------------------------------------------------------------------------
// SVG flamegraph rendering
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Node {
    self_value: u64,
    children: BTreeMap<String, Node>,
}

impl Node {
    fn total(&self) -> u64 {
        self.self_value + self.children.values().map(Node::total).sum::<u64>()
    }
}

fn build_tree(folded: &str) -> Node {
    let mut root = Node::default();
    for line in folded.lines() {
        let Some((path, value)) = line.rsplit_once(' ') else { continue };
        let Ok(value) = value.parse::<u64>() else { continue };
        let mut node = &mut root;
        for frame in path.split(';') {
            node = node.children.entry(frame.to_string()).or_default();
        }
        node.self_value += value;
    }
    root
}

fn frame_color(name: &str) -> String {
    // Deterministic warm palette keyed by a small string hash.
    let mut h: u32 = 2166136261;
    for b in name.bytes() {
        h = (h ^ u32::from(b)).wrapping_mul(16777619);
    }
    let r = 205 + (h % 50);
    let g = 90 + ((h >> 8) % 110);
    let b = 40 + ((h >> 16) % 40);
    format!("rgb({r},{g},{b})")
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

const WIDTH: f64 = 1200.0;
const ROW: f64 = 17.0;

fn render_node(out: &mut String, name: &str, node: &Node, x: f64, width: f64, depth: usize) {
    let y = depth as f64 * ROW;
    let _ = writeln!(
        out,
        "<g><title>{} ({})</title><rect x=\"{:.2}\" y=\"{:.1}\" width=\"{:.2}\" \
         height=\"{:.1}\" fill=\"{}\" stroke=\"white\" stroke-width=\"0.5\"/>",
        xml_escape(name),
        node.total(),
        x,
        y,
        width,
        ROW,
        frame_color(name)
    );
    if width > 40.0 {
        let shown: String = name.chars().take((width / 7.5) as usize).collect();
        let _ = writeln!(
            out,
            "<text x=\"{:.2}\" y=\"{:.1}\" font-size=\"11\" font-family=\"monospace\" \
             fill=\"#222\">{}</text>",
            x + 3.0,
            y + 12.5,
            xml_escape(&shown)
        );
    }
    out.push_str("</g>\n");
    let total = node.total();
    if total > 0 {
        let mut cx = x;
        for (child_name, child) in &node.children {
            let w = width * child.total() as f64 / total as f64;
            if w >= 0.25 {
                render_node(out, child_name, child, cx, w, depth + 1);
            }
            cx += w;
        }
    }
}

fn tree_depth(node: &Node) -> usize {
    1 + node.children.values().map(tree_depth).max().unwrap_or(0)
}

/// Renders folded stacks (as produced by [`to_folded`]) into a
/// self-contained SVG flamegraph: hover titles carry exact values, no
/// scripts or external assets.
pub fn folded_to_svg(folded: &str) -> String {
    let root = build_tree(folded);
    let depth = tree_depth(&root);
    let height = depth as f64 * ROW + 4.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" \
         viewBox=\"0 0 {WIDTH} {height}\">"
    );
    out.push_str("<rect width=\"100%\" height=\"100%\" fill=\"#fdfdfd\"/>\n");
    if root.total() > 0 {
        // The synthetic root row shows each top-level stack's children
        // directly; real captures have a single ROOT child.
        let mut cx = 0.0;
        let total = root.total();
        for (name, child) in &root.children {
            let w = WIDTH * child.total() as f64 / total as f64;
            render_node(&mut out, name, child, cx, w, 0);
            cx += w;
        }
    } else {
        out.push_str(
            "<text x=\"8\" y=\"16\" font-size=\"12\" font-family=\"monospace\">\
             (empty capture)</text>\n",
        );
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_gpusim::observe::Observer;
    use ecl_trace::{ClockMode, Tracer, TracerConfig};

    fn capture() -> Snapshot {
        let t =
            Tracer::new(TracerConfig { slots: 2, events_per_slot: 256, clock: ClockMode::Logical });
        t.phase_start("outer");
        t.phase_start("inner");
        t.record(EventKind::BlockStart, 0, 0, 64);
        t.record(EventKind::BlockEnd, 0, 0, 64);
        t.phase_end("inner");
        t.record(EventKind::BlockStart, 1, 0, 64);
        t.record(EventKind::BlockEnd, 1, 0, 64);
        t.phase_end("outer");
        t.snapshot()
    }

    #[test]
    fn folded_stacks_reflect_phase_nesting() {
        let folded = to_folded(&capture());
        assert!(folded.contains("run;outer;inner;<blocks> "), "got:\n{folded}");
        assert!(folded.contains("run;outer;<blocks> "), "got:\n{folded}");
        assert!(folded.contains("run;outer;inner "), "got:\n{folded}");
        // Every line is `path value`.
        for line in folded.lines() {
            let (_, v) = line.rsplit_once(' ').unwrap();
            assert!(v.parse::<u64>().unwrap() > 0);
        }
    }

    #[test]
    fn unclosed_phase_is_closed_at_capture_end() {
        let t =
            Tracer::new(TracerConfig { slots: 1, events_per_slot: 64, clock: ClockMode::Logical });
        t.phase_start("dangling");
        t.record(EventKind::Marker, 0, 0, 0);
        let folded = to_folded(&t.snapshot());
        assert!(folded.contains("run;dangling "), "got:\n{folded}");
    }

    #[test]
    fn mismatched_phase_end_is_tolerated() {
        let t =
            Tracer::new(TracerConfig { slots: 1, events_per_slot: 64, clock: ClockMode::Logical });
        t.phase_end("never-started"); // no matching start: ignored
        t.phase_start("real");
        t.record(EventKind::Marker, 0, 0, 0);
        t.phase_end("real");
        let folded = to_folded(&t.snapshot());
        assert!(folded.contains("run;real "), "got:\n{folded}");
        assert!(!folded.contains("never-started"));
    }

    #[test]
    fn empty_capture_yields_empty_folded() {
        let t =
            Tracer::new(TracerConfig { slots: 1, events_per_slot: 64, clock: ClockMode::Logical });
        assert_eq!(to_folded(&t.snapshot()), "");
    }

    #[test]
    fn svg_renders_and_is_well_formed_enough() {
        let folded = to_folded(&capture());
        let svg = folded_to_svg(&folded);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("run"));
        assert!(svg.matches("<rect").count() > 2);
        // Escaping: a hostile frame name cannot break out of the XML.
        let svg = folded_to_svg("run;<script>\"x 10\n");
        assert!(!svg.contains("<script>"));
        assert!(svg.contains("&lt;script&gt;"));
    }

    #[test]
    fn empty_folded_svg_is_placeholder() {
        let svg = folded_to_svg("");
        assert!(svg.contains("empty capture"));
    }
}
