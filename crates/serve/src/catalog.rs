//! Graph catalog: name → materialized CSR, with a byte-budgeted LRU.
//!
//! The catalog unifies two sources behind one namespace:
//!
//! * **Registry inputs** — the 22 synthetic Table-1 analogues from
//!   [`ecl_graphgen::registry`], generated on demand at the job's
//!   `(scale, seed)`.
//! * **Disk graphs** — files in `--graphs-dir`: `<name>.ecl` (the
//!   suite's binary format, directedness and weights from the header
//!   flags) and `<name>.el` (text edge list, undirected). Each load
//!   reads the file once, so a damaged file reports its own error.
//!
//! A resolved graph always holds its topology. A weighted resolution
//! (MST) adds a weight column that shares it: the file's weights, or
//! seed-salted hashed ones for a graph without any.
//!
//! Every materialized graph gets an FNV-1a content hash over its full
//! structure (offsets, neighbors, weights, directedness). That hash —
//! not the name — keys the result cache, so renaming a file or
//! regenerating at a different seed can never serve a stale result.
//!
//! Entries are cached under `(name, scale, seed, weighted)` and evicted
//! least-recently-used once the resident bytes exceed the configured
//! budget. A single oversized graph is still admitted (the budget
//! bounds *retention*, not request size) but evicts everything else.

use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ecl_gpusim::Schedule;
use ecl_graph::csr::Csr;
use ecl_graph::io as gio;
use ecl_graph::weighted::WeightedCsr;
use ecl_graph::Fingerprint;
use ecl_graphgen::registry;
use ecl_graphgen::with_hashed_weights;
use ecl_tune::TuneManifest;

/// Max edge weight of the weighted views the catalog synthesizes.
pub use ecl_graphgen::DEFAULT_MAX_WEIGHT;

/// Catalog configuration.
#[derive(Clone, Debug)]
pub struct CatalogConfig {
    /// Directory scanned for `.ecl` / `.el` files (optional).
    pub graphs_dir: Option<PathBuf>,
    /// Resident-bytes budget for cached graphs.
    pub cache_bytes: usize,
    /// Tuned-schedule manifest (`ecl-tune/1`). When present, every
    /// graph materialized by the catalog gets the best-known schedule
    /// per algorithm attached at registration (matched by family
    /// fingerprint), and jobs on it run tuned automatically.
    pub tune: Option<Arc<TuneManifest>>,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig { graphs_dir: None, cache_bytes: 256 << 20, tune: None }
    }
}

/// Why a graph could not be resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogError {
    /// Name matches neither a registry input nor a disk file.
    NotFound(String),
    /// Disk file exists but failed to load/parse.
    Load(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::NotFound(n) => write!(f, "unknown graph {n:?}"),
            CatalogError::Load(m) => write!(f, "graph load failed: {m}"),
        }
    }
}

/// A materialized, content-hashed graph ready for an algorithm run.
#[derive(Debug)]
pub struct ResolvedGraph {
    /// Catalog name it resolved under.
    pub name: String,
    /// FNV-1a hash of the full structure (and weights, if present).
    pub content_hash: u64,
    /// Estimated resident bytes (used for the LRU budget).
    pub bytes: usize,
    /// The graph.
    pub csr: Arc<Csr>,
    /// Weighted view of `csr`. Present for weighted resolutions.
    pub weighted: Option<WeightedCsr>,
    /// Structural family fingerprint, computed once at registration.
    pub fingerprint: Fingerprint,
    /// Best-known tuned schedule per algorithm wire name, attached
    /// from the configured manifest at registration. Empty without a
    /// manifest or a family match — jobs then run defaults.
    pub schedules: Vec<(&'static str, Schedule)>,
}

impl ResolvedGraph {
    /// The attached tuned schedule for `algo` (wire name), if the
    /// manifest had an entry for this graph's family.
    pub fn schedule_for(&self, algo: &str) -> Option<&Schedule> {
        self.schedules.iter().find(|(a, _)| *a == algo).map(|(_, s)| s)
    }
}

/// One row of `GET /v1/graphs`.
#[derive(Clone, Debug)]
pub struct CatalogRow {
    /// Catalog name.
    pub name: String,
    /// `"registry"` or `"disk"`.
    pub source: &'static str,
    /// Table-1 type string for registry inputs, file extension for disk.
    pub kind: String,
    /// Whether the graph is directed.
    pub directed: bool,
    /// Registry: paper vertex count. Disk: 0 (unknown until loaded).
    pub paper_vertices: usize,
    /// Fingerprint of the most recently used cached materialization,
    /// if any is resident. Tells operators which manifest family
    /// bucket the graph resolved to. `None` until first resolved.
    pub fingerprint: Option<Fingerprint>,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct CacheKey {
    name: String,
    scale_bits: u64,
    seed: u64,
    weighted: bool,
}

struct CacheSlot {
    graph: Arc<ResolvedGraph>,
    last_used: u64,
}

#[derive(Default)]
struct CacheState {
    slots: HashMap<CacheKey, CacheSlot>,
    resident_bytes: usize,
}

/// The catalog. Cheap to share (`Arc<GraphCatalog>`).
pub struct GraphCatalog {
    config: CatalogConfig,
    cache: Mutex<CacheState>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl GraphCatalog {
    /// Creates a catalog with the given configuration.
    pub fn new(config: CatalogConfig) -> GraphCatalog {
        GraphCatalog {
            config,
            cache: Mutex::new(CacheState::default()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// (hits, misses, evictions, resident_bytes) counters.
    pub fn stats(&self) -> (u64, u64, u64, usize) {
        let resident = self.lock().resident_bytes;
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
            resident,
        )
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Lists everything resolvable by name: all registry inputs plus
    /// any `.ecl`/`.el` files in the graphs dir (sorted by name; disk
    /// shadows registry on collision, matching [`Self::resolve`]).
    pub fn list(&self) -> Vec<CatalogRow> {
        let mut rows: Vec<CatalogRow> = Vec::new();
        let disk = self.disk_names();
        for spec in registry::all_inputs() {
            if disk.iter().any(|(n, _)| n == spec.name) {
                continue;
            }
            rows.push(CatalogRow {
                name: spec.name.to_string(),
                source: "registry",
                kind: spec.graph_type.to_string(),
                directed: spec.directed,
                paper_vertices: spec.paper_vertices,
                fingerprint: None,
            });
        }
        for (name, ext) in disk {
            rows.push(CatalogRow {
                name,
                source: "disk",
                kind: ext,
                directed: false,
                paper_vertices: 0,
                fingerprint: None,
            });
        }
        // Attach the most recently used resident fingerprint per name
        // (a name may be cached at several (scale, seed) points; the
        // freshest one is what operators are currently running).
        {
            let state = self.lock();
            let mut freshest: HashMap<&str, (u64, &Fingerprint)> = HashMap::new();
            for (key, slot) in state.slots.iter() {
                let entry = freshest
                    .entry(key.name.as_str())
                    .or_insert((slot.last_used, &slot.graph.fingerprint));
                if slot.last_used >= entry.0 {
                    *entry = (slot.last_used, &slot.graph.fingerprint);
                }
            }
            for row in &mut rows {
                if let Some((_, fp)) = freshest.get(row.name.as_str()) {
                    row.fingerprint = Some((*fp).clone());
                    row.directed = fp.directed;
                }
            }
        }
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    fn disk_names(&self) -> Vec<(String, String)> {
        let Some(dir) = &self.config.graphs_dir else {
            return Vec::new();
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut names = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let (Some(stem), Some(ext)) = (
                path.file_stem().and_then(|s| s.to_str()),
                path.extension().and_then(|s| s.to_str()),
            ) else {
                continue;
            };
            if ext == "ecl" || ext == "el" {
                names.push((stem.to_string(), ext.to_string()));
            }
        }
        names
    }

    fn disk_path(&self, name: &str) -> Option<PathBuf> {
        // Reject path traversal in client-supplied names outright.
        if name.contains('/') || name.contains('\\') || name.contains("..") {
            return None;
        }
        let dir = self.config.graphs_dir.as_ref()?;
        for ext in ["ecl", "el"] {
            let p = dir.join(format!("{name}.{ext}"));
            if p.is_file() {
                return Some(p);
            }
        }
        None
    }

    /// Resolves `name` at `(scale, seed)`, materializing a weighted
    /// view when `weighted` (MST). Disk graphs ignore `scale`; `seed`
    /// still salts synthesized weights for unweighted disk graphs.
    pub fn resolve(
        &self,
        name: &str,
        scale: f64,
        seed: u64,
        weighted: bool,
    ) -> Result<Arc<ResolvedGraph>, CatalogError> {
        let key = CacheKey { name: name.to_string(), scale_bits: scale.to_bits(), seed, weighted };
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.lock().slots.get_mut(&key) {
            slot.last_used = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&slot.graph));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);

        // Materialize outside the lock: generation can take a while
        // and must not serialize unrelated requests. Concurrent misses
        // on the same key may both build (wasteful but correct: both
        // builds are deterministic and identical); the first admitted
        // stays.
        let graph = Arc::new(self.materialize(name, scale, seed, weighted)?);
        Ok(self.admit(key, graph, stamp))
    }

    /// Caches `graph` under `key` and returns the cached graph: the
    /// slot already there if a concurrent miss admitted one first, so
    /// its bytes are never counted twice. Then evicts LRU entries until
    /// under budget (never the returned one — a single oversized graph
    /// is admitted once).
    fn admit(&self, key: CacheKey, graph: Arc<ResolvedGraph>, stamp: u64) -> Arc<ResolvedGraph> {
        let mut state = self.lock();
        if let Some(slot) = state.slots.get_mut(&key) {
            slot.last_used = slot.last_used.max(stamp);
            return Arc::clone(&slot.graph);
        }
        state.resident_bytes += graph.bytes;
        state.slots.insert(key, CacheSlot { graph: Arc::clone(&graph), last_used: stamp });
        while state.resident_bytes > self.config.cache_bytes && state.slots.len() > 1 {
            let Some(victim) = state
                .slots
                .iter()
                .filter(|(_, s)| !Arc::ptr_eq(&s.graph, &graph))
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(slot) = state.slots.remove(&victim) {
                state.resident_bytes = state.resident_bytes.saturating_sub(slot.graph.bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        graph
    }

    fn materialize(
        &self,
        name: &str,
        scale: f64,
        seed: u64,
        weighted: bool,
    ) -> Result<ResolvedGraph, CatalogError> {
        // Disk shadows registry: an operator dropping `internet.ecl`
        // into the graphs dir deliberately overrides the synthetic.
        if let Some(path) = self.disk_path(name) {
            return self.load_disk(name, &path, seed, weighted);
        }
        let spec = registry::find(name).ok_or_else(|| CatalogError::NotFound(name.to_string()))?;
        if scale <= 0.0 || !scale.is_finite() {
            return Err(CatalogError::Load(format!("invalid scale {scale}")));
        }
        let g = Arc::new(spec.generate(scale, seed));
        let w = weighted.then(|| spec.weigh(Arc::clone(&g), seed, DEFAULT_MAX_WEIGHT));
        Ok(finish(name, g, w, self.config.tune.as_deref()))
    }

    /// Reads `path` once. A weighted resolution keeps the file's
    /// weights, or synthesizes seed-salted ones for an unweighted
    /// `.ecl`; an unweighted resolution drops the file's weights.
    fn load_disk(
        &self,
        name: &str,
        path: &Path,
        seed: u64,
        weighted: bool,
    ) -> Result<ResolvedGraph, CatalogError> {
        let err = |e: std::io::Error| CatalogError::Load(format!("{}: {e}", path.display()));
        let mut r = BufReader::new(File::open(path).map_err(err)?);
        let (g, w) = if path.extension().and_then(|s| s.to_str()) == Some("el") {
            if weighted {
                let w = gio::read_weighted_edge_list(&mut r, false).map_err(err)?;
                (Arc::clone(w.shared_csr()), Some(w))
            } else {
                (Arc::new(gio::read_edge_list(&mut r, false).map_err(err)?), None)
            }
        } else {
            let (g, weights) = gio::read_graph(&mut r).map_err(err)?;
            let g = Arc::new(g);
            let w = weighted.then(|| match weights {
                Some(weights) => WeightedCsr::from_parts(Arc::clone(&g), weights),
                None => with_hashed_weights(Arc::clone(&g), DEFAULT_MAX_WEIGHT, seed),
            });
            (g, w)
        };
        Ok(finish(name, g, w, self.config.tune.as_deref()))
    }
}

fn finish(
    name: &str,
    csr: Arc<Csr>,
    weighted: Option<WeightedCsr>,
    tune: Option<&TuneManifest>,
) -> ResolvedGraph {
    let weights = weighted.as_ref().map(WeightedCsr::weights);
    let hash = content_hash(&csr, weights);
    let bytes = graph_bytes(&csr, weights.is_some());
    let fingerprint = Fingerprint::of(&csr);
    // Registration-time schedule attachment: one manifest lookup per
    // algorithm against the graph's family bucket. The manifest is
    // fixed for the catalog's lifetime, so the (graph, algo) →
    // schedule mapping is stable and result-cache-safe.
    let family = fingerprint.family_key();
    let schedules = tune
        .map(|m| {
            ecl_algos::ALL
                .iter()
                .map(|a| a.name())
                .filter_map(|algo| m.lookup(algo, &family).map(|e| (algo, e.schedule.clone())))
                .collect()
        })
        .unwrap_or_default();
    ResolvedGraph {
        name: name.to_string(),
        content_hash: hash,
        bytes,
        csr,
        weighted,
        fingerprint,
        schedules,
    }
}

fn graph_bytes(g: &Csr, weighted: bool) -> usize {
    let arc_bytes = if weighted { 8 } else { 4 };
    g.offsets().len() * 8 + g.num_arcs() * arc_bytes
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_0000_01b3;

/// FNV-1a over the graph's logical content: directedness, vertex and
/// arc counts, offsets, neighbors, and weights if present. Stable
/// across platforms (explicit little-endian byte feed).
pub fn content_hash(g: &Csr, weights: Option<&[u32]>) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(&[g.is_directed() as u8, weights.is_some() as u8]);
    eat(&(g.num_vertices() as u64).to_le_bytes());
    eat(&(g.num_arcs() as u64).to_le_bytes());
    for &o in g.offsets() {
        eat(&(o as u64).to_le_bytes());
    }
    for &v in g.neighbor_array() {
        eat(&v.to_le_bytes());
    }
    for w in weights.unwrap_or(&[]) {
        eat(&w.to_le_bytes());
    }
    h
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn catalog_with_budget(bytes: usize) -> GraphCatalog {
        GraphCatalog::new(CatalogConfig { cache_bytes: bytes, ..CatalogConfig::default() })
    }

    #[test]
    fn registry_resolution_hits_cache() {
        let cat = catalog_with_budget(64 << 20);
        let a = cat.resolve("internet", 0.001, 42, false).unwrap();
        let b = cat.resolve("internet", 0.001, 42, false).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second resolve must be the cached Arc");
        let (hits, misses, _, resident) = cat.stats();
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(resident, a.bytes);
    }

    #[test]
    fn seed_and_scale_key_the_cache_and_the_hash() {
        let cat = catalog_with_budget(256 << 20);
        // Scales above the 256-vertex generation floor, so scale
        // actually changes the generated size.
        let a = cat.resolve("internet", 0.01, 1, false).unwrap();
        let b = cat.resolve("internet", 0.01, 2, false).unwrap();
        let c = cat.resolve("internet", 0.02, 1, false).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.content_hash, b.content_hash, "seed must change content");
        assert_ne!(a.content_hash, c.content_hash, "scale must change content");
        // Same inputs → identical content hash (deterministic generation).
        let a2 = GraphCatalog::new(CatalogConfig::default())
            .resolve("internet", 0.01, 1, false)
            .unwrap();
        assert_eq!(a.content_hash, a2.content_hash);
    }

    #[test]
    fn weighted_view_for_mst() {
        let cat = catalog_with_budget(256 << 20);
        let w = cat.resolve("USA-road-d.NY", 0.001, 7, true).unwrap();
        assert!(w.weighted.is_some());
        // The weighted view shares the resolved graph.
        assert!(std::ptr::eq(w.weighted.as_ref().unwrap().csr(), &*w.csr));
        assert!(w.csr.num_vertices() >= 256);
    }

    #[test]
    fn unknown_name_is_not_found() {
        let cat = catalog_with_budget(1 << 20);
        match cat.resolve("no-such-graph", 1.0, 0, false) {
            Err(CatalogError::NotFound(n)) => assert_eq!(n, "no-such-graph"),
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_misses_on_one_key_count_its_bytes_once() {
        // Two misses on one key both build and both admit.
        let cat = catalog_with_budget(64 << 20);
        let key = || CacheKey {
            name: "internet".into(),
            scale_bits: 0.001f64.to_bits(),
            seed: 42,
            weighted: false,
        };
        let build = || Arc::new(cat.materialize("internet", 0.001, 42, false).unwrap());
        let (first, second) = (build(), build());
        cat.admit(key(), Arc::clone(&first), 0);
        let admitted = cat.admit(key(), second, 1);
        assert_eq!(cat.stats().3, first.bytes);
        // Both callers then hold the graph the cache keeps.
        assert!(Arc::ptr_eq(&admitted, &cat.resolve("internet", 0.001, 42, false).unwrap()));
    }

    #[test]
    fn byte_budget_evicts_lru() {
        // Budget of 1 byte: every insert evicts the previous entry.
        let cat = catalog_with_budget(1);
        let a = cat.resolve("internet", 0.001, 1, false).unwrap();
        assert!(a.bytes > 1);
        cat.resolve("internet", 0.001, 2, false).unwrap();
        let (_, misses, evictions, resident) = cat.stats();
        assert_eq!(misses, 2);
        assert_eq!(evictions, 1);
        // Only the newest stays resident (oversized-but-admitted).
        let b = cat.resolve("internet", 0.001, 2, false).unwrap();
        assert_eq!(resident, b.bytes);
        // First graph was evicted → resolving it again is a miss.
        cat.resolve("internet", 0.001, 1, false).unwrap();
        assert_eq!(cat.stats().1, 3);
    }

    fn one_entry_manifest(algo: &str, family: &str, fp: &Fingerprint) -> TuneManifest {
        let sketch = ecl_profiling::LogSketch::new();
        sketch.record(1);
        TuneManifest::new(vec![ecl_tune::TuneEntry {
            algo: algo.to_string(),
            input: "internet".into(),
            family: family.to_string(),
            fingerprint: fp.clone(),
            scale: 0.002,
            seed: 7,
            method: "exhaustive".into(),
            evaluations: 1,
            space: 1,
            default_time: 2.0,
            tuned_time: 1.0,
            eval_sketch: sketch.snapshot(),
            schedule: ecl_algos::find(algo)
                .unwrap()
                .default_schedule()
                .with("optimized_init", ecl_gpusim::KnobValue::Bool(true)),
        }])
    }

    #[test]
    fn manifest_attaches_schedules_by_family() {
        // No manifest → fingerprint present, no schedules.
        let plain = catalog_with_budget(64 << 20);
        let g = plain.resolve("internet", 0.002, 7, false).unwrap();
        assert!(g.schedules.is_empty(), "no manifest, no schedules");
        assert_eq!(g.fingerprint.vertices, g.csr.num_vertices());
        let family = g.fingerprint.family_key();

        // Same graph through a manifest-bearing catalog → attached.
        let cat = GraphCatalog::new(CatalogConfig {
            tune: Some(Arc::new(one_entry_manifest("cc", &family, &g.fingerprint))),
            ..CatalogConfig::default()
        });
        let tuned = cat.resolve("internet", 0.002, 7, false).unwrap();
        let s = tuned.schedule_for("cc").expect("cc schedule attached at registration");
        assert_eq!(s.bool_knob("optimized_init"), Some(true));
        assert!(tuned.schedule_for("scc").is_none(), "no scc entry in the manifest");

        // A family mismatch falls back to defaults (no attachment).
        let other = GraphCatalog::new(CatalogConfig {
            tune: Some(Arc::new(one_entry_manifest(
                "cc",
                "skew=uniform;diam=high;directed=true",
                &g.fingerprint,
            ))),
            ..CatalogConfig::default()
        });
        let miss = other.resolve("internet", 0.002, 7, false).unwrap();
        assert!(miss.schedule_for("cc").is_none(), "family mismatch must fall back");
    }

    #[test]
    fn listing_surfaces_resident_fingerprints() {
        let cat = catalog_with_budget(64 << 20);
        let before = cat.list();
        let row = before.iter().find(|r| r.name == "internet").unwrap();
        assert!(row.fingerprint.is_none(), "nothing resident yet");

        let g = cat.resolve("internet", 0.002, 7, false).unwrap();
        let rows = cat.list();
        let row = rows.iter().find(|r| r.name == "internet").unwrap();
        let fp = row.fingerprint.as_ref().expect("resident graph must expose its fingerprint");
        assert_eq!(fp.family_key(), g.fingerprint.family_key());
        assert_eq!(fp.vertices, g.fingerprint.vertices);
        // Unresolved names stay bare.
        assert!(rows.iter().any(|r| r.fingerprint.is_none()));
    }

    #[test]
    fn a_truncated_disk_graph_reports_the_end_of_its_stream() {
        let dir = std::env::temp_dir().join(format!("ecl-serve-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = registry::find("internet").unwrap().generate(0.001, 3);
        let w = with_hashed_weights(g.clone(), DEFAULT_MAX_WEIGHT, 3);
        let (mut plain, mut heavy) = (Vec::new(), Vec::new());
        gio::write_csr(&mut plain, &g).unwrap();
        gio::write_weighted(&mut heavy, &w).unwrap();
        let cat = GraphCatalog::new(CatalogConfig {
            graphs_dir: Some(dir.clone()),
            ..CatalogConfig::default()
        });
        for (name, mut bytes) in [("plain", plain), ("heavy", heavy)] {
            bytes.truncate(bytes.len() - 3);
            let path = dir.join(format!("{name}.ecl"));
            std::fs::write(&path, &bytes).unwrap();
            let eof = gio::read_graph(&mut bytes.as_slice()).unwrap_err();
            assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
            for weighted in [false, true] {
                let want = CatalogError::Load(format!("{}: {eof}", path.display()));
                assert_eq!(cat.resolve(name, 1.0, 0, weighted).unwrap_err(), want);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_loading_and_shadowing() {
        let dir = std::env::temp_dir().join(format!("ecl-serve-cat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A small edge list...
        std::fs::write(dir.join("tiny.el"), "0 1\n1 2\n2 0\n").unwrap();
        // ...and a binary file shadowing the registry name "internet".
        let g = registry::find("internet").unwrap().generate(0.001, 99);
        let mut buf = Vec::new();
        gio::write_csr(&mut buf, &g).unwrap();
        std::fs::write(dir.join("internet.ecl"), &buf).unwrap();

        let cat = GraphCatalog::new(CatalogConfig {
            graphs_dir: Some(dir.clone()),
            ..CatalogConfig::default()
        });
        let tiny = cat.resolve("tiny", 1.0, 0, false).unwrap();
        assert_eq!(tiny.csr.num_vertices(), 3);
        assert_eq!(tiny.csr.num_edges(), 3);
        // Weighted view of an unweighted disk graph synthesizes weights.
        let wt = cat.resolve("tiny", 1.0, 5, true).unwrap();
        assert!(wt.weighted.is_some());

        // Shadowing: "internet" resolves to the seed-99 file content
        // regardless of the requested (scale, seed).
        let shadowed = cat.resolve("internet", 0.5, 1, false).unwrap();
        assert_eq!(shadowed.content_hash, content_hash(&g, None));
        // Path traversal is rejected, not resolved.
        assert!(matches!(cat.resolve("../tiny", 1.0, 0, false), Err(CatalogError::NotFound(_))));
        // Listing includes both sources, disk shadowing registry.
        let rows = cat.list();
        assert!(rows.iter().any(|r| r.name == "tiny" && r.source == "disk"));
        let internet: Vec<_> = rows.iter().filter(|r| r.name == "internet").collect();
        assert_eq!(internet.len(), 1);
        assert_eq!(internet[0].source, "disk");

        std::fs::remove_dir_all(&dir).ok();
    }
}
