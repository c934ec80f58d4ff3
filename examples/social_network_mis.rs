//! Social-network scenario: select a mutually non-adjacent seed set
//! (MIS) and a conflict-free posting schedule (coloring) for a
//! soc-LiveJournal-like community graph, while profiling the internal
//! non-determinism the paper documents in Table 3.
//!
//! ```text
//! cargo run --release --example social_network_mis
//! ```

use ecl_suite::{gc, gen, mis, profiling, sim};

fn main() {
    let spec = gen::registry::find("soc-LiveJournal1").expect("registered input");
    let social = spec.generate(0.002, 11);
    println!("social graph: {} users, {} follow-pairs", social.num_vertices(), social.num_edges());

    let device =
        || sim::Device::new(sim::DeviceConfig { num_sms: 4, ..sim::DeviceConfig::rtx4090() });

    // Seed-set selection, repeated three times: the selected set must
    // be identical every run (deterministic result), while the
    // per-thread iteration counts wobble (internal non-determinism).
    let mut runs = profiling::MultiRun::new();
    let mut first: Option<Vec<bool>> = None;
    for i in 0..3 {
        let d = device();
        let (r, secs) = sim::run_timed(|| mis::run(&d, &social, &mis::MisConfig::default()));
        let iters = r.counters.iterations.summary();
        println!(
            "run {}: seed set {} users, iterations avg {:.2} max {:.0} ({:.3}s)",
            i + 1,
            r.set_size(),
            iters.avg,
            iters.max,
            secs
        );
        runs.push(iters);
        match &first {
            None => first = Some(r.in_set),
            Some(f) => assert_eq!(f, &r.in_set, "final MIS must be deterministic"),
        }
    }
    println!(
        "iteration-count stability across runs: avg spread {:.1}%, max spread {:.1}%",
        100.0 * runs.avg_spread(),
        100.0 * runs.max_spread()
    );
    println!("(the selected set was bit-identical in all runs)");

    // Posting schedule: color the graph; users sharing an edge never
    // post in the same slot.
    let d = device();
    let r = gc::run(&d, &social, &gc::GcConfig::default());
    assert!(ecl_suite::reference::is_proper_coloring(&social, &r.colors));
    println!(
        "\nposting schedule: {} slots for {} users ({} coloring rounds)",
        r.num_colors(),
        social.num_vertices(),
        r.rounds
    );
    let (bc, nyp) = r.counters.large_vertex_summaries(&social, gc::LARGE_DEGREE);
    println!(
        "influencer accounts (degree > {}): best-slot invalidated avg {:.2} times, \
         deferred avg {:.2} times",
        gc::LARGE_DEGREE,
        bc.avg,
        nyp.avg
    );
    println!();
    print!(
        "{}",
        r.counters
            .uncolored_per_round
            .render("coloring convergence (unscheduled users per round)", 40)
    );
}
