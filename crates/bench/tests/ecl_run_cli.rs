//! `ecl-run` and `ecl-repro` refuse a bad (algorithm, input) pairing,
//! an out-of-range or malformed option, a flag whose knob the algorithm
//! lacks or whose mode cannot honour it, or an unknown argument,
//! algorithm or experiment with exit code 2 and one line — no
//! backtrace. `ecl-run --kernels` prints a per-kernel table that
//! accounts for the whole modeled cost.

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
        (&["cc", "--input", "internet", "--scale", "0"], "scale must be in (0, 1], got 0"),
        (&["cc", "--input", "internet", "--scale", "-1"], "scale must be in (0, 1], got -1"),
        (&["cc", "--input", "internet", "--scale", "nan"], "scale must be in (0, 1], got nan"),
        (&["cc", "--input", "internet", "--scale", "inf"], "scale must be in (0, 1], got inf"),
        (&["cc", "--input", "internet", "--scale", "2"], "scale must be in (0, 1], got 2"),
        (&["cc", "--input", "internet", "--scale", "abc"], "scale must be in (0, 1], got abc"),
        (&["cc", "--input", "internet", "--seed", "abc"], "seed must be an integer, got abc"),
        (&["cc", "--input", "internet", "--repeats", "x"], "repeats must be an integer, got x"),
        (&["cc", "--input", "internet", "--shards", "x"], "shards must be an integer, got x"),
        (&["cc", "--input", "internet", "--bogus"], "unknown argument: --bogus"),
        (&["cc", "--input", "internet", "--seed"], "unknown argument: --seed"),
        (&["zz", "--input", "internet"], "unknown algorithm \"zz\""),
        // A variant flag is a schedule knob; an algorithm without it refuses.
        (&["gc", "--input", "internet", "--trim"], "gc has no knob \"trim\" (--trim)"),
        (
            &["mis", "--input", "internet", "--block-size", "256"],
            "mis has no knob \"block_size\" (--block-size)",
        ),
        // A flag the mode cannot honour is refused, not ignored.
        (
            &["cc", "--input", "internet", "--check", "--shards", "2"],
            "--check cannot be combined with --shards",
        ),
        (
            &["cc", "--input", "internet", "--kernels", "--shards", "2"],
            "--kernels cannot be combined with --shards",
        ),
        (
            &["cc", "--input", "internet", "--profile", "p", "--shards", "2"],
            "--shards cannot be combined with --profile",
        ),
        (
            &["cc", "--input", "internet", "--profile", "p", "--trace", "f.etr"],
            "--trace cannot be combined with --profile",
        ),
        (
            &["cc", "--input", "internet", "--profile", "p", "--check"],
            "--check cannot be combined with --profile",
        ),
        (
            &["cc", "--input", "internet", "--profile", "p", "--kernels"],
            "--kernels cannot be combined with --profile",
        ),
        (
            &["cc", "--input", "internet", "--profile", "p", "--histogram"],
            "--histogram cannot be combined with --profile",
        ),
        (&["cc", "--input", "internet", "--repeats", "2"], "--repeats requires --profile"),
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

#[test]
fn kernel_table_rows_and_host_sum_to_the_modeled_cost() {
    let out = Command::new(env!("CARGO_BIN_EXE_ecl-run"))
        // GC's idle checks weigh 0.25: rows rounded to whole units would
        // miss the total by one here.
        .args(["--algo", "gc", "--input", "as-skitter", "--scale", "0.002", "--kernels"])
        .env("ECL_SIM_WORKERS", "1")
        .output()
        .expect("spawn ecl-run");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    let table = text.split("per-kernel cost breakdown\n").nth(1).expect("a kernel table");
    // Rows run from the header to the blank line before `modeled cost`.
    let rows: Vec<Vec<&str>> = table
        .lines()
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect();
    let names: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    assert_eq!(names, ["gc.color-small", "gc.color-large", "(host)"]);
    let column = |i: usize| -> f64 {
        rows.iter().map(|r| r[i].trim_end_matches('%').parse::<f64>().expect("a number")).sum()
    };
    let (modeled, share) = (column(2), column(3));
    let line = text.lines().find_map(|l| l.strip_prefix("modeled cost: ")).expect("cost line");
    assert_eq!(line, format!("{modeled:.0} units"));
    assert!((share - 100.0).abs() < 0.2, "shares sum to {share}");
}

#[test]
fn experiment_binaries_refuse_bad_arguments_with_one_line() {
    let usage = "usage: ecl-repro <table1|table2|table3|table4|table5|table6|table7|table8|\
                 fig1|fig2|all> [--scale f] [--seed n]";
    for (args, line) in [
        (&["table1", "--scale", "abc"][..], "scale must be in (0, 1], got abc"),
        (&["table1", "--scale", "2"], "scale must be in (0, 1], got 2"),
        (&["table1", "--scale", "0"], "scale must be in (0, 1], got 0"),
        (&["table1", "--seed", "x"], "seed must be an integer, got x"),
        (&["table1", "--bogus"], "unknown argument: --bogus"),
        (&["table1", "--scale"], "unknown argument: --scale"),
        (&["table9"], usage),
        (&[], usage),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ecl-repro"))
            .args(args)
            .output()
            .expect("spawn ecl-repro");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr).trim_end(), line);
        assert!(out.stdout.is_empty(), "{args:?}: printed a table");
    }
}
