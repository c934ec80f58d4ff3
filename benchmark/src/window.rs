//! The samples of one timed window and the fourteen end-to-end
//! metrics derived from them, identically for every workload.

use crate::jobs::Algo;
use crate::metrics::ALGOS;
use crate::stats::Summary;

/// Everything measured between the start and the end of one window.
#[derive(Default)]
pub struct Window {
    /// Caller-observed latency of every verified job, per algorithm.
    pub lat_ms: [Vec<f64>; 5],
    /// `modeled_time` of every verified job, per algorithm.
    pub units: [Vec<f64>; 5],
    pub attempted: u64,
    /// Wrong result, refusal (429/503), timeout or transport error.
    pub failed: u64,
    pub wall_s: f64,
}

/// What one run hands to `main` for printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// The outcome of an untraced run: its window's end-to-end metrics.
    pub fn end_to_end(references_ok: bool, setup_s: f64, w: &Window) -> Outcome {
        print_window(w);
        Outcome {
            correct: references_ok && w.failed == 0 && w.verified() > 0,
            attempted: w.attempted,
            failed: w.failed,
            metrics: end_to_end_metrics(setup_s, w),
        }
    }
}

pub fn algo_index(algo: Algo) -> usize {
    Algo::ALL.iter().position(|&a| a == algo).expect("algo in ALL")
}

impl Window {
    pub fn record(&mut self, algo: Algo, latency_ms: f64, units: f64) {
        let i = algo_index(algo);
        self.lat_ms[i].push(latency_ms);
        self.units[i].push(units);
    }

    pub fn verified(&self) -> usize {
        self.lat_ms.iter().map(Vec::len).sum()
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.verified() as f64 / self.wall_s
    }

    pub fn all_latencies(&self) -> Vec<f64> {
        self.lat_ms.iter().flatten().copied().collect()
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The end-to-end metrics in manifest order.
pub fn end_to_end_metrics(setup_s: f64, w: &Window) -> Vec<(String, f64, &'static str)> {
    let mut out = vec![
        ("setup_s".to_string(), setup_s, "s"),
        ("jobs_per_s".to_string(), w.jobs_per_s(), "1/s"),
    ];
    for (i, a) in ALGOS.iter().enumerate() {
        out.push((format!("{a}_ms"), Summary::of(&w.lat_ms[i]).median, "ms"));
    }
    out.push(("lat_p90_ms".to_string(), Summary::of(&w.all_latencies()).p90, "ms"));
    for (i, a) in ALGOS.iter().enumerate() {
        out.push((format!("{a}_units"), Summary::of(&w.units[i]).median, "units"));
    }
    out.push(("peak_rss_mb".to_string(), peak_rss_mb(), "MiB"));
    out
}

/// Human-readable per-algorithm table (n, q1, median, q3).
pub fn print_window(w: &Window) {
    println!(
        "window: {:.3} s, attempted {}, verified {}, failed {}",
        w.wall_s,
        w.attempted,
        w.verified(),
        w.failed
    );
    println!("  algo      n   q1_ms      median_ms  q3_ms      p90_ms     median_units    units_iqr_share");
    for (i, a) in ALGOS.iter().enumerate() {
        let l = Summary::of(&w.lat_ms[i]);
        let u = Summary::of(&w.units[i]);
        println!(
            "  {a:<5} {:>5}   {:<10.4} {:<10.4} {:<10.4} {:<10.4} {:<15.2} {:.5}",
            l.n,
            l.q1,
            l.median,
            l.q3,
            l.p90,
            u.median,
            (u.q3 - u.q1) / u.median
        );
    }
}
