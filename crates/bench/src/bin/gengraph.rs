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

use ecl_bench::usage_error;

fn usage() -> ! {
    usage_error(
        "usage: gengraph --input <name> --out <path> [--scale f] [--seed n] \
         [--weighted] [--format bin|edgelist]",
    )
}

fn main() {
    let (mut input, mut out_path, mut format) = (String::new(), String::new(), "bin".to_string());
    let (mut scale, mut seed) = (ecl_bench::DEFAULT_SCALE, ecl_bench::DEFAULT_SEED);
    let mut weighted = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--weighted" {
            weighted = true;
            continue;
        }
        let value = args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--input" => input = value,
            "--out" => out_path = value,
            "--scale" => scale = ecl_bench::parse_scale(&value).unwrap_or_else(|e| usage_error(&e)),
            "--seed" => seed = ecl_bench::parse_int("seed", &value),
            "--format" => format = value,
            _ => usage(),
        }
    }
    if input.is_empty() || out_path.is_empty() {
        usage();
    }
    let spec = ecl_graphgen::registry::find(&input)
        .unwrap_or_else(|| usage_error(&format!("unknown input '{input}'")));
    match (weighted, format.as_str()) {
        (true, "bin") if spec.directed => {
            usage_error(&format!("--weighted needs an undirected input; {input} is directed"))
        }
        (true, "bin") | (false, "bin" | "edgelist") => {}
        (true, other) => {
            usage_error(&format!("weighted output only supports --format bin (got {other})"))
        }
        (false, other) => usage_error(&format!("unknown format '{other}'")),
    }
    let file = File::create(&out_path).unwrap_or_else(|e| {
        eprintln!("cannot create {out_path}: {e}");
        std::process::exit(1);
    });
    let mut w = BufWriter::new(file);
    let inputs = ecl_bench::Inputs::new(scale, seed);
    let (g, weights) = if weighted {
        let g = inputs.weighted(spec);
        ecl_graph::io::write_weighted(&mut w, g).expect("write");
        (g.csr(), ", weighted")
    } else {
        let g = inputs.graph(spec);
        match format.as_str() {
            "bin" => ecl_graph::io::write_csr(&mut w, g).expect("write"),
            _ => ecl_graph::io::write_edge_list(&mut w, g).expect("write"),
        }
        (g, "")
    };
    eprintln!("wrote {out_path} ({} vertices, {} arcs{weights})", g.num_vertices(), g.num_arcs());
}
