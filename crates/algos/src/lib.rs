//! The algorithm registry: each ECL algorithm is declared once.
//!
//! The paper profiles five codes that differ only in their kernels,
//! their counters and a handful of knobs, so everything that runs "an
//! algorithm, by name, on these graph views, under this schedule" —
//! `ecl-serve` jobs, `ecl-tune` evaluations and every `ecl-run` mode —
//! holds a `&dyn` [`Algorithm`] from [`ALL`] / [`find`] and runs it on
//! the one device preset ([`device_config`]), mostly through the one
//! driver, [`execute`] / [`execute_sharded`]. The algorithm is stated
//! once; a [`Schedule`] is data applied to it, and the counters it
//! reports are data in its [`Outcome`].
//!
//! Adding an algorithm is a kernel crate (`Config`, `KNOBS`,
//! `apply_schedule`, `run`, and its result's `counters`), one adapter
//! in [`adapters`], and one line in [`ALL`] (DESIGN.md, "Adding an
//! algorithm");
//! `tests/algo_registry.rs` drives a toy sixth algorithm through every
//! consumer to keep that true.

pub mod adapters;

use ecl_gpusim::schedule::KnobSpec;
use ecl_gpusim::{Device, DeviceConfig, Schedule};
use ecl_graph::{Csr, WeightedCsr};
use ecl_profiling::Counter;
use ecl_shard::{Partition, ShardStats};

pub use adapters::SCC_MIN_SMS;

/// The graph an algorithm runs on, plus the input's name for error
/// messages. Every input has its graph; a weighted view (sharing that
/// graph) is there when the caller holds one, and [`execute`] checks
/// that an algorithm that reads weights gets it.
#[derive(Clone, Copy, Debug)]
pub struct Views<'a> {
    /// Input name (catalog or registry name).
    pub name: &'a str,
    /// The graph.
    pub csr: &'a Csr,
    /// Weighted view of `csr` (MST).
    pub weighted: Option<&'a WeightedCsr>,
}

impl<'a> Views<'a> {
    /// The weighted view.
    ///
    /// # Panics
    /// Panics if it is absent — [`check_input`] rules that out for
    /// every call made through [`execute`].
    pub fn expect_weighted(&self) -> &'a WeightedCsr {
        self.weighted.expect("weighted view present (check_input)")
    }
}

/// What one run reports, beyond the modeled time its device tallied.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Named integer aggregates (counts, rounds, FNV checksums of the
    /// solution vectors), in a fixed order. Bit-exact: two runs are
    /// "the same result" iff these match.
    pub aggregates: Vec<(&'static str, u64)>,
    /// The algorithm's application-specific counters (`<algo>/<name>`),
    /// in a fixed order, as its kernel crate's result lists them: what
    /// `ecl-run` prints and, for the sketches, what a profile manifest
    /// records. Read after the run, so they charge nothing to the
    /// device.
    pub counters: Vec<(&'static str, Counter)>,
}

impl Outcome {
    /// FNV-1a over the aggregates (names and values): equal iff two
    /// runs produced the same result. Process-local — never persist it.
    pub fn signature(&self) -> u64 {
        fnv1a(self.aggregates.iter().flat_map(|(name, v)| name.bytes().chain(v.to_le_bytes())))
    }
}

/// FNV-1a-style byte hash. The multiplier is the one serve's checksums
/// have always used — not the standard 64-bit FNV prime
/// (`0x100_0000_01b3`); changing it would change every served checksum.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3))
}

/// FNV-1a over little-endian `u32`s — the stable solution-vector
/// checksum carried in [`Outcome::aggregates`] (and so in serve's
/// result-cache equivalence guarantee).
pub fn checksum_u32(values: impl IntoIterator<Item = u32>) -> u64 {
    fnv1a(values.into_iter().flat_map(u32::to_le_bytes))
}

/// One runnable algorithm. Object-safe: consumers hold
/// `&dyn Algorithm` and never name a concrete code.
pub trait Algorithm: Sync {
    /// Stable wire name (`cc`, `gc`, …).
    fn name(&self) -> &'static str;

    /// Whether the algorithm consumes directed graphs (it then rejects
    /// undirected ones, and vice versa).
    fn directed(&self) -> bool {
        false
    }

    /// Whether the algorithm consumes the weighted view.
    fn weighted(&self) -> bool {
        false
    }

    /// SM floor of the scaled device (kernels that need a multi-block
    /// grid even at tiny scales raise it).
    fn min_sms(&self) -> usize {
        1
    }

    /// The knobs `run` reads from a schedule, with their admissible
    /// values: the algorithm's whole schedule space.
    fn knobs(&self) -> &'static [KnobSpec];

    /// Every knob at its default: reproduces the untuned run.
    fn default_schedule(&self) -> Schedule {
        ecl_gpusim::default_schedule(self.knobs())
    }

    /// Runs on `device` with the default configuration overridden by
    /// `schedule`'s knobs. `views` satisfies the input contract.
    fn run(&self, device: &Device, views: &Views<'_>, schedule: &Schedule) -> Outcome;

    /// The sharded implementation, if the algorithm has one.
    fn run_sharded(&self) -> Option<ShardedRun> {
        None
    }
}

/// A sharded run across `devices`, one per shard of the partition.
pub type ShardedRun = fn(&[Device], &Csr, &Partition, &Schedule) -> (Outcome, ShardStats);

/// The registered algorithms, in wire order (`ecl_serve::Algo::ALL`
/// and the benchmark's metric names follow it).
pub static ALL: [&dyn Algorithm; 5] =
    [&adapters::Cc, &adapters::Gc, &adapters::Mis, &adapters::Mst, &adapters::Scc];

/// The registered algorithm called `name`.
pub fn find(name: &str) -> Option<&'static dyn Algorithm> {
    ALL.iter().copied().find(|a| a.name() == name)
}

/// The directedness contract, as one line naming both sides.
pub fn check_directedness(algo: &dyn Algorithm, input: &str, directed: bool) -> Result<(), String> {
    if algo.directed() == directed {
        return Ok(());
    }
    let (wants, is) =
        if directed { ("an undirected", "directed") } else { ("a directed", "undirected") };
    Err(format!("{} requires {wants} graph ({input:?} is {is})", algo.name()))
}

/// The input contract of `algo`: directedness matches and, if it reads
/// weights, the weighted view is present.
pub fn check_input(algo: &dyn Algorithm, views: &Views<'_>) -> Result<(), String> {
    check_directedness(algo, views.name, views.csr.is_directed())?;
    if algo.weighted() && views.weighted.is_none() {
        return Err("internal: weighted view missing".into());
    }
    Ok(())
}

/// The one device preset: an RTX 4090 scaled by `scale`, with at
/// least `algo.min_sms()` SMs.
pub fn device_config(algo: &dyn Algorithm, scale: f64) -> DeviceConfig {
    DeviceConfig::rtx4090_scaled(scale, algo.min_sms())
}

/// Runs `algo` on a fresh device from [`device_config`] and returns its
/// outcome with the device's modeled time. The run applies the
/// schedule's knobs to the default configuration (no schedule: the
/// defaults) under the caller's dispatch policy; the modeled time is
/// reproducible bit for bit under the in-order one
/// (`DispatchPolicy::sequential`, one worker).
pub fn execute(
    algo: &dyn Algorithm,
    scale: f64,
    views: &Views<'_>,
    schedule: Option<&Schedule>,
) -> Result<(Outcome, f64), String> {
    check_input(algo, views)?;
    let device = Device::new(device_config(algo, scale));
    let outcome = algo.run(&device, views, schedule.unwrap_or(&Schedule::new()));
    Ok((outcome, device.modeled_time()))
}

/// Runs `algo` across `shards` scaled devices through `ecl-shard`
/// ([`Partition::auto`]). The outcome's solution checksums equal the
/// single-pool run's; the modeled time is in the returned stats. An
/// algorithm without a sharded implementation is refused before any
/// partitioning work.
pub fn execute_sharded(
    algo: &dyn Algorithm,
    scale: f64,
    views: &Views<'_>,
    shards: u32,
    schedule: Option<&Schedule>,
) -> Result<(Outcome, ShardStats), String> {
    check_directedness(algo, views.name, views.csr.is_directed())?;
    let run = algo
        .run_sharded()
        .ok_or_else(|| format!("{} does not support sharded execution", algo.name()))?;
    let part = Partition::auto(views.csr, shards);
    let devices = ecl_shard::devices_for(device_config(algo, scale), shards);
    Ok(run(&devices, views.csr, &part, schedule.unwrap_or(&Schedule::new())))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_graph::GraphBuilder;

    fn path(directed: bool) -> Csr {
        let mut b =
            if directed { GraphBuilder::new_directed(4) } else { GraphBuilder::new_undirected(4) };
        for v in 0..3 {
            b.add_edge(v, v + 1);
        }
        b.build()
    }

    #[test]
    fn input_contract_fails_with_one_line() {
        let (und, dir) = (path(false), path(true));
        let views = |g| Views { name: "star", csr: g, weighted: None };
        let run = |name: &str, g| execute(find(name).unwrap(), 0.001, &views(g), None);
        assert_eq!(
            run("cc", &dir).unwrap_err(),
            "cc requires an undirected graph (\"star\" is directed)"
        );
        assert_eq!(
            run("scc", &und).unwrap_err(),
            "scc requires a directed graph (\"star\" is undirected)"
        );
        assert!(run("mst", &und).unwrap_err().contains("weighted view missing"));
        assert!(run("cc", &und).is_ok() && run("scc", &dir).is_ok());
        // No sharded implementation: said before the view is missed.
        let sharded = execute_sharded(find("mst").unwrap(), 0.001, &views(&und), 2, None);
        assert_eq!(sharded.unwrap_err(), "mst does not support sharded execution");
        assert!(find("bfs").is_none());
    }

    #[test]
    fn checksum_is_pinned_and_signature_tracks_the_aggregates() {
        // Served aggregates (and cached results) carry the checksum.
        assert_eq!(checksum_u32([1, 2, 3]), 0xe001_7b43_81eb_0395);
        let a = Outcome { aggregates: vec![("n", 1), ("sum", 2)], counters: Vec::new() };
        let b = Outcome { aggregates: vec![("n", 1), ("sum", 3)], counters: Vec::new() };
        assert_eq!(a.signature(), a.clone().signature());
        assert_ne!(a.signature(), b.signature());
    }
}
