//! `ecl-run` and the experiment binaries refuse a bad (algorithm,
//! input) pairing, an out-of-range or malformed option, a flag whose
//! knob the algorithm lacks, or an unknown argument or algorithm with
//! exit code 2 and one line — no backtrace.

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
fn experiment_binaries_refuse_bad_arguments_with_one_line() {
    for (args, env, line) in [
        (&["--scale", "abc"][..], None, "scale must be in (0, 1], got abc"),
        (&["--scale", "2"], None, "scale must be in (0, 1], got 2"),
        (&["--scale", "0"], None, "scale must be in (0, 1], got 0"),
        (&[], Some("nan"), "scale must be in (0, 1], got nan"),
        (&["--seed", "x"], None, "seed must be an integer, got x"),
        (&["--bogus"], None, "unknown argument: --bogus"),
        (&["--scale"], None, "unknown argument: --scale"),
    ] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_table1"));
        cmd.args(args).env_remove("ECL_SCALE").env_remove("ECL_SEED");
        if let Some(scale) = env {
            cmd.env("ECL_SCALE", scale);
        }
        let out = cmd.output().expect("spawn table1");
        assert_eq!(out.status.code(), Some(2), "{args:?} {env:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr).trim_end(), line);
        assert!(out.stdout.is_empty(), "{args:?}: printed a table");
    }
}
