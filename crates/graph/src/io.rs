//! Graph (de)serialization.
//!
//! The binary layout mirrors the spirit of the ECL graph format used by
//! the paper's inputs \[11\]: a small header (vertex count, arc count,
//! flags) followed by the offset array, the neighbor array, and — if
//! present — the arc-aligned weight array. All integers are
//! little-endian. Offsets are stored as `u64` so files are portable
//! across platforms.
//!
//! A text edge-list reader/writer is also provided for interop with the
//! common `u v [w]` one-edge-per-line format.

use std::io::{self, BufRead, Read, Write};

use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId};
use crate::weighted::WeightedCsr;

const MAGIC: &[u8; 8] = b"ECLGRRS1";

const FLAG_DIRECTED: u32 = 1;
const FLAG_WEIGHTED: u32 = 2;

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn write_body<W: Write>(w: &mut W, g: &Csr, weights: Option<&[u32]>) -> io::Result<()> {
    w.write_all(MAGIC)?;
    let mut flags = 0u32;
    if g.is_directed() {
        flags |= FLAG_DIRECTED;
    }
    if weights.is_some() {
        flags |= FLAG_WEIGHTED;
    }
    write_u32(w, flags)?;
    write_u64(w, g.num_vertices() as u64)?;
    write_u64(w, g.num_arcs() as u64)?;
    for &o in g.offsets() {
        write_u64(w, o as u64)?;
    }
    for &v in g.neighbor_array() {
        write_u32(w, v)?;
    }
    if let Some(ws) = weights {
        for &x in ws {
            write_u32(w, x)?;
        }
    }
    Ok(())
}

struct Header {
    directed: bool,
    weighted: bool,
    n: usize,
    m: usize,
}

fn read_header<R: Read>(r: &mut R) -> io::Result<Header> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let flags = read_u32(r)?;
    let n = read_u64(r)? as usize;
    let m = read_u64(r)? as usize;
    Ok(Header { directed: flags & FLAG_DIRECTED != 0, weighted: flags & FLAG_WEIGHTED != 0, n, m })
}

fn read_body<R: Read>(r: &mut R, h: &Header) -> io::Result<(Csr, Option<Vec<u32>>)> {
    // Header counts are untrusted (a corrupted stream can claim
    // multi-exabyte sizes): cap the pre-allocation and let the vectors
    // grow as data actually arrives — a short stream errors out in
    // read_exact long before memory becomes a concern.
    const PREALLOC_CAP: usize = 1 << 20;
    let mut offsets = Vec::with_capacity(h.n.saturating_add(1).min(PREALLOC_CAP));
    for _ in 0..=h.n {
        offsets.push(read_u64(r)? as usize);
    }
    let mut neighbors = Vec::with_capacity(h.m.min(PREALLOC_CAP));
    for _ in 0..h.m {
        neighbors.push(read_u32(r)?);
    }
    let weights = if h.weighted {
        let mut ws = Vec::with_capacity(h.m.min(PREALLOC_CAP));
        for _ in 0..h.m {
            ws.push(read_u32(r)?);
        }
        Some(ws)
    } else {
        None
    };
    // from_parts re-validates the structure, so corrupt files cannot
    // produce an invalid graph; turn its panic into an io error instead.
    let csr = std::panic::catch_unwind(|| Csr::from_parts(offsets, neighbors, h.directed))
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "structurally invalid graph"))?;
    Ok((csr, weights))
}

/// Serializes an unweighted graph.
pub fn write_csr<W: Write>(w: &mut W, g: &Csr) -> io::Result<()> {
    write_body(w, g, None)
}

/// Deserializes a graph of either kind: its topology, and its
/// arc-aligned weights if the header says it is weighted. A reader that
/// accepts both kinds (the serve catalog) reads the stream once with
/// this and sees the stream's own error.
pub fn read_graph<R: Read>(r: &mut R) -> io::Result<(Csr, Option<Vec<u32>>)> {
    let h = read_header(r)?;
    read_body(r, &h)
}

fn mismatch(holds: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("stream holds {holds} graph"))
}

/// Deserializes an unweighted graph. Fails with `InvalidData` if the
/// stream holds a weighted graph (use [`read_weighted`]).
pub fn read_csr<R: Read>(r: &mut R) -> io::Result<Csr> {
    match read_graph(r)? {
        (g, None) => Ok(g),
        (_, Some(_)) => Err(mismatch("a weighted")),
    }
}

/// Serializes a weighted graph.
pub fn write_weighted<W: Write>(w: &mut W, g: &WeightedCsr) -> io::Result<()> {
    write_body(w, g.csr(), Some(g.weights()))
}

/// Deserializes a weighted graph. Fails with `InvalidData` if the
/// stream holds an unweighted graph (use [`read_csr`]).
pub fn read_weighted<R: Read>(r: &mut R) -> io::Result<WeightedCsr> {
    match read_graph(r)? {
        (g, Some(ws)) => Ok(WeightedCsr::from_parts(g, ws)),
        (_, None) => Err(mismatch("an unweighted")),
    }
}

/// Parses a text edge list (`u v` or `u v w` per line; `#`/`%` comment
/// lines ignored) into a graph with `n = max id + 1` vertices.
pub fn read_edge_list<R: BufRead>(r: R, directed: bool) -> io::Result<Csr> {
    let edges = parse_edges(r)?;
    let n = edges.iter().map(|&(u, v, _)| u.max(v) as usize + 1).max().unwrap_or(0);
    let mut b =
        if directed { GraphBuilder::new_directed(n) } else { GraphBuilder::new_undirected(n) };
    for (u, v, _) in edges {
        b.add_edge(u, v);
    }
    Ok(b.build())
}

/// Like [`read_edge_list`] but keeps the third column as the weight
/// (missing weights default to 1).
pub fn read_weighted_edge_list<R: BufRead>(r: R, directed: bool) -> io::Result<WeightedCsr> {
    let edges = parse_edges(r)?;
    let n = edges.iter().map(|&(u, v, _)| u.max(v) as usize + 1).max().unwrap_or(0);
    let mut b =
        if directed { GraphBuilder::new_directed(n) } else { GraphBuilder::new_undirected(n) };
    for (u, v, w) in edges {
        b.add_weighted_edge(u, v, w);
    }
    Ok(b.build_weighted())
}

fn parse_edges<R: BufRead>(r: R) -> io::Result<Vec<(VertexId, VertexId, u32)>> {
    let mut edges = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let bad = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: expected 'u v [w]'", lineno + 1),
            )
        };
        let u: VertexId = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let v: VertexId = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let w: u32 = match it.next() {
            Some(s) => s.parse().map_err(|_| bad())?,
            None => 1,
        };
        edges.push((u, v, w));
    }
    Ok(edges)
}

/// Writes a graph as a text edge list. Undirected graphs emit each edge
/// once (canonical `u <= v` arc).
pub fn write_edge_list<W: Write>(w: &mut W, g: &Csr) -> io::Result<()> {
    for (u, v) in g.arcs() {
        if g.is_directed() || u <= v {
            writeln!(w, "{u} {v}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        let mut b = GraphBuilder::new_undirected(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(3, 4);
        b.add_edge(4, 0);
        b.build()
    }

    #[test]
    fn binary_roundtrip_unweighted() {
        let g = sample();
        let mut buf = Vec::new();
        write_csr(&mut buf, &g).unwrap();
        let g2 = read_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_roundtrip_weighted() {
        let mut b = GraphBuilder::new_undirected(3);
        b.add_weighted_edge(0, 1, 11);
        b.add_weighted_edge(1, 2, 22);
        let g = b.build_weighted();
        let mut buf = Vec::new();
        write_weighted(&mut buf, &g).unwrap();
        let g2 = read_weighted(&mut buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn read_graph_returns_either_kind() {
        let mut b = GraphBuilder::new_undirected(3);
        b.add_weighted_edge(0, 1, 11);
        let wg = b.build_weighted();
        let (mut plain, mut heavy) = (Vec::new(), Vec::new());
        write_csr(&mut plain, wg.csr()).unwrap();
        write_weighted(&mut heavy, &wg).unwrap();
        assert_eq!(read_graph(&mut plain.as_slice()).unwrap(), (wg.csr().clone(), None));
        let weights = Some(wg.weights().to_vec());
        assert_eq!(read_graph(&mut heavy.as_slice()).unwrap(), (wg.csr().clone(), weights));
    }

    #[test]
    fn rejects_bad_magic() {
        let buf = b"NOTAGRPH________".to_vec();
        assert!(read_csr(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_truncated_stream() {
        let g = sample();
        let mut buf = Vec::new();
        write_csr(&mut buf, &g).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_csr(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn weighted_unweighted_mismatch() {
        let g = sample();
        let mut buf = Vec::new();
        write_csr(&mut buf, &g).unwrap();
        assert!(read_weighted(&mut buf.as_slice()).is_err());

        let mut b = GraphBuilder::new_undirected(2);
        b.add_weighted_edge(0, 1, 1);
        let wg = b.build_weighted();
        let mut buf = Vec::new();
        write_weighted(&mut buf, &wg).unwrap();
        assert!(read_csr(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &g).unwrap();
        let g2 = read_edge_list(io::BufReader::new(buf.as_slice()), false).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_comments_and_weights() {
        let text = "# comment\n% other comment\n0 1 7\n\n1 2 9\n";
        let g = read_weighted_edge_list(io::BufReader::new(text.as_bytes()), false).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.weight_between(0, 1), Some(7));
        assert_eq!(g.weight_between(2, 1), Some(9));
    }

    #[test]
    fn edge_list_malformed_line() {
        let text = "0 x\n";
        assert!(read_edge_list(io::BufReader::new(text.as_bytes()), false).is_err());
    }

    #[test]
    fn edge_list_default_weight_is_one() {
        let text = "0 1\n";
        let g = read_weighted_edge_list(io::BufReader::new(text.as_bytes()), false).unwrap();
        assert_eq!(g.weight_between(0, 1), Some(1));
    }

    #[test]
    fn empty_edge_list() {
        let g = read_edge_list(io::BufReader::new("".as_bytes()), true).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn huge_claimed_sizes_error_instead_of_allocating() {
        // A header claiming astronomically many vertices/arcs must hit
        // end-of-stream, not attempt an exabyte allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&0u32.to_le_bytes()); // flags
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // m
        assert!(read_csr(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn corrupt_structure_is_io_error_not_panic() {
        // Valid header but neighbor id out of range.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&FLAG_DIRECTED.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes()); // n = 1
        buf.extend_from_slice(&1u64.to_le_bytes()); // m = 1
        buf.extend_from_slice(&0u64.to_le_bytes()); // offsets[0]
        buf.extend_from_slice(&1u64.to_le_bytes()); // offsets[1]
        buf.extend_from_slice(&9u32.to_le_bytes()); // neighbor 9 (out of range)
        assert!(read_csr(&mut buf.as_slice()).is_err());
    }
}
