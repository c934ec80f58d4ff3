//! `gengraph` — generate any registered input and write it to disk in
//! the workspace's binary graph format (or as a text edge list), so
//! external tools can consume the same synthetic inputs.
//!
//! ```text
//! gengraph --input europe_osm --scale 0.01 --out europe.eclg
//! gengraph --input amazon0601 --weighted --out amazon.eclg
//! gengraph --input star --format edgelist --out star.txt
//! ```

use std::fs::File;
use std::io::BufWriter;

fn usage() -> ! {
    eprintln!(
        "usage: gengraph --input <name> --out <path> [--scale f] [--seed n] \
         [--weighted] [--format bin|edgelist]"
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut input = String::new();
    let mut out_path = String::new();
    let mut scale = ecl_bench::DEFAULT_SCALE;
    let mut seed = ecl_bench::DEFAULT_SEED;
    let mut weighted = false;
    let mut format = "bin".to_string();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--input" if i + 1 < argv.len() => {
                input = argv[i + 1].clone();
                i += 1;
            }
            "--out" if i + 1 < argv.len() => {
                out_path = argv[i + 1].clone();
                i += 1;
            }
            "--scale" if i + 1 < argv.len() => {
                scale = ecl_bench::parse_scale(&argv[i + 1])
                    .unwrap_or_else(|e| ecl_bench::usage_error(&e));
                i += 1;
            }
            "--seed" if i + 1 < argv.len() => {
                seed = argv[i + 1].parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--weighted" => weighted = true,
            "--format" if i + 1 < argv.len() => {
                format = argv[i + 1].clone();
                i += 1;
            }
            _ => usage(),
        }
        i += 1;
    }
    if input.is_empty() || out_path.is_empty() {
        usage();
    }
    let spec = ecl_graphgen::registry::find(&input).unwrap_or_else(|| {
        eprintln!("unknown input '{input}'");
        std::process::exit(2);
    });
    let file = File::create(&out_path).unwrap_or_else(|e| {
        eprintln!("cannot create {out_path}: {e}");
        std::process::exit(1);
    });
    let mut w = BufWriter::new(file);
    if weighted {
        let g = spec.generate_weighted(scale, seed, 1 << 20);
        match format.as_str() {
            "bin" => ecl_graph::io::write_weighted(&mut w, &g).expect("write"),
            other => {
                eprintln!("weighted output only supports --format bin (got {other})");
                std::process::exit(2);
            }
        }
        eprintln!(
            "wrote {} ({} vertices, {} arcs, weighted)",
            out_path,
            g.num_vertices(),
            g.csr().num_arcs()
        );
    } else {
        let g = spec.generate(scale, seed);
        match format.as_str() {
            "bin" => ecl_graph::io::write_csr(&mut w, &g).expect("write"),
            "edgelist" => ecl_graph::io::write_edge_list(&mut w, &g).expect("write"),
            other => {
                eprintln!("unknown format '{other}'");
                std::process::exit(2);
            }
        }
        eprintln!("wrote {} ({} vertices, {} arcs)", out_path, g.num_vertices(), g.num_arcs());
    }
}
