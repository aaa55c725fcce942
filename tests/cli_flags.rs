//! A flag value that does not parse stops the command with an error
//! naming the flag and the value (exit 1, through `render_chain` like
//! every other failure) — it used to be dropped and the default used, so
//! `--seed abc` quietly collected seed 2024's dataset.

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
