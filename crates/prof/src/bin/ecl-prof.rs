//! `ecl-prof` — profiling artifact toolbox.
//!
//! ```text
//! ecl-prof expose <manifest.json>
//! ecl-prof folded <capture.etr>
//! ecl-prof flame  <capture.etr> [-o out.svg]
//! ```
//!
//! Usage and parse errors exit 2 with a message on stderr.

use std::fs;
use std::process::ExitCode;

use ecl_prof::{folded_to_svg, to_folded, to_prometheus, Manifest};

const USAGE: &str = "usage:
  ecl-prof expose <manifest.json>
  ecl-prof folded <capture.etr>
  ecl-prof flame  <capture.etr> [-o out.svg]";

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn read_capture(path: &str) -> Result<ecl_trace::Snapshot, String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    ecl_trace::read_snapshot(&mut bytes.as_slice()).map_err(|e| format!("{path}: {e}"))
}

/// Removes `flag` and its value from `args`, returning the value.
fn parse_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = if args.is_empty() { String::new() } else { args.remove(0) };
    match cmd.as_str() {
        "expose" => {
            let [path] = args.as_slice() else {
                return Err(format!("expose wants one manifest\n{USAGE}"));
            };
            let manifest = Manifest::from_json(&read(path)?)?;
            print!("{}", to_prometheus(&manifest));
            Ok(())
        }
        "folded" => {
            let [path] = args.as_slice() else {
                return Err(format!("folded wants one .etr capture\n{USAGE}"));
            };
            print!("{}", to_folded(&read_capture(path)?));
            Ok(())
        }
        "flame" => {
            let out = parse_flag(&mut args, "-o")?;
            let [path] = args.as_slice() else {
                return Err(format!("flame wants one .etr capture\n{USAGE}"));
            };
            let svg = folded_to_svg(&to_folded(&read_capture(path)?));
            match out {
                Some(dest) => {
                    fs::write(&dest, svg).map_err(|e| format!("{dest}: {e}"))?;
                    eprintln!("wrote {dest}");
                }
                None => print!("{svg}"),
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ecl-prof: {msg}");
            ExitCode::from(2)
        }
    }
}
