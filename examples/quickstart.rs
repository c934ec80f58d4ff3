//! Quickstart: run all five instrumented ECL algorithms on one small
//! synthetic input and print the application-specific counters that
//! general-purpose profilers cannot capture.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ecl_suite::{cc, gc, gen, mis, mst, profiling, scc, sim};

fn main() {
    // An as-skitter-like power-law graph, scaled to laptop size, its
    // weighted view for MST (sharing the graph), plus a directed mesh
    // for SCC.
    let graph = gen::powerlaw::preferential_attachment(5_000, 6.0, 42);
    let weighted = gen::with_hashed_weights(graph, 1 << 16, 42);
    let undirected = weighted.csr();
    let mesh = gen::mesh::toroid_wedge(64, 64, 42);

    // The simulated GPU: an RTX 4090 shrunk to 4 SMs so the example
    // runs instantly; per-thread metrics keep their meaning.
    let device = sim::Device::new(sim::DeviceConfig { num_sms: 4, ..sim::DeviceConfig::rtx4090() });

    println!("input: {} vertices, {} arcs\n", undirected.num_vertices(), undirected.num_arcs());

    // --- ECL-CC ------------------------------------------------------
    let r = cc::run(&device, undirected, &cc::CcConfig::baseline());
    println!("ECL-CC: {} components", r.num_components());
    println!(
        "  init: {} vertices initialized, {} neighbors traversed (gap {:.2}x)",
        r.counters.vertices_initialized.get(),
        r.counters.vertices_traversed.get(),
        r.counters.vertices_traversed.get() as f64
            / r.counters.vertices_initialized.get().max(1) as f64
    );
    println!(
        "  hooks: {} atomicCAS attempted, {} failed",
        r.counters.hook_cas.attempted(),
        r.counters.hook_cas.cas_failed()
    );

    // --- ECL-MIS -----------------------------------------------------
    let r = mis::run(&device, undirected, &mis::MisConfig::default());
    let iters = r.counters.iterations.summary();
    println!("\nECL-MIS: {} vertices selected in {} rounds", r.set_size(), r.rounds);
    println!("  per-thread iterations: avg {:.2}, max {:.0}", iters.avg, iters.max);

    // --- ECL-GC ------------------------------------------------------
    let r = gc::run(&device, undirected, &gc::GcConfig::default());
    let (best_changed, not_yet) = r.counters.large_vertex_summaries(undirected, gc::LARGE_DEGREE);
    println!("\nECL-GC: {} colors in {} rounds", r.num_colors(), r.rounds);
    println!(
        "  runLarge vertices: best color changed avg {:.2}, not-yet-possible avg {:.2}",
        best_changed.avg, not_yet.avg
    );

    // --- ECL-MST -----------------------------------------------------
    let r = mst::run(&device, &weighted, &mst::MstConfig::baseline());
    println!("\nECL-MST: {} edges, total weight {}", r.edges.len(), r.total_weight);
    println!(
        "  atomicMin: {} attempted, {:.1}% useless",
        r.counters.atomics.attempted(),
        100.0 * r.counters.atomics.useless_fraction()
    );
    print!("{}", r.counters.bars.to_table("  per-iteration metrics").render());

    // --- ECL-SCC -----------------------------------------------------
    let r = scc::run(&device, &mesh, &scc::SccConfig::original());
    println!("\nECL-SCC: {} SCCs in {} outer iterations", r.num_sccs(), r.outer_iterations);
    println!(
        "  signature atomicMax: {} attempted, {} effective",
        r.counters.max_tally.attempted(),
        r.counters.max_tally.updated()
    );

    // --- Your own counters ------------------------------------------
    // A code owns its counters in a plain struct, as the kernel crates
    // do, and prints them through a `Table`.
    struct InputCounters {
        edges_processed: profiling::GlobalCounter,
    }
    let mine = InputCounters { edges_processed: profiling::GlobalCounter::new() };
    mine.edges_processed.add(undirected.num_arcs() as u64 + mesh.num_arcs() as u64);
    let mut t = profiling::Table::new("own counters example", &["Counter", "Total"]);
    t.row(&["edges-processed-total", &mine.edges_processed.get().to_string()]);
    print!("\n{}", t.render());
}
