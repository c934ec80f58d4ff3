//! `ecl-run` refuses a bad (algorithm, input) pairing or an
//! out-of-range option with exit code 2 and one line — no backtrace.

use std::process::Command;

#[test]
fn contract_violations_exit_2_with_one_line() {
    for (args, line) in [
        (&["cc", "--input", "star"][..], "cc requires an undirected graph (\"star\" is directed)"),
        (
            &["scc", "--input", "internet"],
            "scc requires a directed graph (\"internet\" is undirected)",
        ),
        (
            &["mst", "--input", "internet", "--shards", "2"],
            "mst does not support sharded execution",
        ),
        (
            &["scc", "--input", "star", "--block-size", "abc"],
            "--block-size must be an integer in [1, 1024], got \"abc\"",
        ),
        (
            &["scc", "--input", "star", "--block-size", "0"],
            "--block-size must be an integer in [1, 1024], got \"0\"",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ecl-run"))
            .args(["--scale", "0.002", "--algo"])
            .args(args)
            .output()
            .expect("spawn ecl-run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr).trim_end(), line);
    }
}
