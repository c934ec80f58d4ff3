//! The three closed-loop `batch-*` workloads: one caller, one job at a
//! time, direct calls into the algorithm crates.

use std::time::Instant;

use crate::jobs::{self, Algo, Inputs};
use crate::spans;
use crate::stats::median;
use crate::window::{algo_index, Outcome, Window};

/// Generator seed of the batch graphs. Fixed, because the meshes'
/// SCC structure — and with it `scc_ms` / `scc_units` — moves by
/// ±30 % from one generator seed to the next (README, "Noise
/// controls"); `--seed` orders the jobs instead.
pub const GRAPH_SEED: u64 = 42;

/// Which registry inputs a batch workload runs on, and how large.
pub struct BatchSpec {
    pub undirected: &'static str,
    pub directed: &'static str,
    /// Generation scales: cc/gc/mis input, mst input, scc mesh.
    pub scales: [f64; 3],
    pub sharded: bool,
    /// Cold set-ups per run: enough 15–150 ms set-ups for 1–2 s of
    /// work and a median that repeats. A fixed count, not a time
    /// budget: what a dropped set-up leaves behind in the allocator is
    /// part of `peak_rss_mb`, which must not depend on how fast this
    /// run was.
    pub setup_reps: usize,
}

/// Sizes put one sweep over the five algorithms at 0.45–0.6 s under
/// the default pool policy on the reference host (two workers), so
/// each algorithm gets 50+ samples in a 30 s window.
pub fn spec(workload: &str) -> Option<BatchSpec> {
    let (undirected, directed, scales, sharded, setup_reps) = match workload {
        "batch-road" => ("USA-road-d.USA", "klein-bottle", [0.004, 0.0015, 0.001], false, 25),
        "batch-skew" => ("kron_g500-logn21", "toroid-wedge", [0.003, 0.003, 0.05], false, 13),
        "batch-shard4" => ("2d-2e20.sym", "toroid-hex", [0.025, 0.025, 0.003], true, 75),
        _ => return None,
    };
    Some(BatchSpec { undirected, directed, scales, sharded, setup_reps })
}

impl BatchSpec {
    /// One complete cold set-up: generate, reference answers, partition.
    pub fn build(&self) -> Inputs {
        Inputs::build(self.undirected, self.directed, self.scales, GRAPH_SEED, 0, self.sharded)
    }
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// Runs `setup` cold `reps` times; returns the median duration and the
/// last product.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    loop {
        let start = Instant::now();
        let product = spans::span("bench.setup", 0, &mut setup);
        times.push(start.elapsed().as_secs_f64());
        if times.len() == reps {
            return (median(&times), product);
        }
    }
}

/// The untimed warm-up sweep: every algorithm once, each checked in
/// full against `ecl-ref`. Returns the checksums later jobs must
/// reproduce, and whether every reference check passed.
pub fn warm_up(inputs: &Inputs) -> ([u64; 5], bool) {
    let mut expected = [0u64; 5];
    let mut ok = true;
    for algo in Algo::ALL {
        let done = jobs::run_job(inputs, algo, 0);
        if !spans::span("ref.verify", 0, || done.verify(inputs)) {
            eprintln!("warm-up: {} failed its reference check", algo.name());
            ok = false;
        }
        expected[algo_index(algo)] = done.checksum();
    }
    (expected, ok)
}

/// One timed window: sweeps over the five algorithms in a
/// seed-shuffled order until `seconds` have passed.
pub fn run_window(inputs: &Inputs, expected: &[u64; 5], seconds: f64, rng: &mut Rng) -> Window {
    let mut w = Window::default();
    let mut order = Algo::ALL;
    let start = Instant::now();
    'window: loop {
        rng.shuffle(&mut order);
        for algo in order {
            if start.elapsed().as_secs_f64() >= seconds {
                break 'window;
            }
            w.attempted += 1;
            let done = jobs::run_job(inputs, algo, w.attempted);
            // Verification is outside the job's latency clock.
            if done.checksum() == expected[algo_index(algo)] {
                w.record(algo, done.latency_ns as f64 / 1e6, done.units);
            } else {
                w.failed += 1;
            }
        }
    }
    w.wall_s = start.elapsed().as_secs_f64();
    w
}

/// Prints the input sizes the README's sizing argument rests on.
pub fn print_inputs(inputs: &Inputs) {
    println!(
        "inputs: {} n={} arcs={} | {} n={} arcs={} | CSR {:.2} MiB",
        inputs.undirected_name,
        inputs.undirected.num_vertices(),
        inputs.undirected.num_arcs(),
        inputs.directed_name,
        inputs.directed.num_vertices(),
        inputs.directed.num_arcs(),
        inputs.csr_bytes() as f64 / (1 << 20) as f64
    );
}

/// An untraced run of a batch workload: repeated cold set-up, warm-up
/// sweep, one timed window.
pub fn timed_run(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let spec = spec(workload).expect("a batch workload");
    let (setup_s, inputs) = repeated_setup(spec.setup_reps, || spec.build());
    print_inputs(&inputs);
    let (expected, references_ok) = warm_up(&inputs);
    let w = run_window(&inputs, &expected, seconds, &mut Rng(seed));
    Outcome::end_to_end(references_ok, setup_s, &w)
}
