//! A flag value that does not parse, a flag the command does not read and
//! a stray positional each stop the command with an error naming the
//! offender (exit 1, through `render_chain` like every other failure) —
//! they used to be dropped and the default used, so `--seed abc` and
//! `--sed 7` both quietly collected seed 2024's dataset.

use std::process::Command;

const MPHPC: &str = env!("CARGO_BIN_EXE_mphpc");

#[test]
fn a_flag_value_that_does_not_parse_is_an_error_not_the_default() {
    let out = std::env::temp_dir().join(format!("mphpc_cli_flags_{}.csv", std::process::id()));
    let out = out.to_str().expect("utf-8 temp dir");
    for (args, message) in [
        (
            &["collect", "--out", out, "--apps", "1", "--seed", "abc"][..],
            "error: invalid argument: --seed wants a u64, got 'abc'\n",
        ),
        (
            &["pipeline", "--apps", "1", "--rate", "0,5"][..],
            "error: invalid argument: --rate wants a f64, got '0,5'\n",
        ),
        (
            &["collect", "--out", out, "--apps", "1", "--sed", "7"][..],
            "error: invalid argument: unknown option --sed for 'collect'\n",
        ),
        (
            &["fleet", "status", "--store", out, "--worker", "w0"][..],
            "error: invalid argument: unknown option --worker for 'fleet status'\n",
        ),
        (
            &["collect", "--out", out, "1", "--apps"][..],
            "error: invalid argument: unexpected argument '1' for 'collect'\n",
        ),
    ] {
        let run = Command::new(MPHPC).args(args).output().expect("mphpc runs");
        assert_eq!(run.status.code(), Some(1), "mphpc {args:?}");
        assert_eq!(
            String::from_utf8_lossy(&run.stderr),
            message,
            "mphpc {args:?}"
        );
        assert!(run.stdout.is_empty(), "mphpc {args:?} went on to do work");
    }
    assert!(!std::path::Path::new(out).exists(), "nothing was collected");
}
