//! The experiment registry against the documents and the command line.

use mphpc_bench::{experiment, REGISTRY};

#[test]
fn ids_are_unique_and_every_artefact_row_of_design_section_3_resolves_to_an_entry() {
    for (i, e) in REGISTRY.iter().enumerate() {
        assert!(REGISTRY[..i].iter().all(|o| o.id != e.id), "{} twice", e.id);
    }
    let design = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(design).expect("DESIGN.md");
    let mut rows = 0;
    for line in design.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let [_, row, .., regenerator, _] = cells[..] else {
            continue;
        };
        if row.len() != 2 || !row.starts_with(['T', 'D', 'F', 'A', 'X']) {
            continue;
        }
        let id = regenerator.trim_start_matches("`mphpc_exp ");
        let entry = experiment(id.split('`').next().unwrap_or(id))
            .unwrap_or_else(|| panic!("{row}: {regenerator:?} names no registry entry"));
        assert!(
            entry.artifact.split(' ').any(|a| a == row),
            "{row}: {}",
            entry.id
        );
        rows += 1;
    }
    assert_eq!(rows, 3 + 1 + 7 + 2 + 6, "T1–T3, D1, F2–F8, A1–A2, X1–X6");
}

#[test]
fn a_command_line_mphpc_exp_cannot_run_ends_in_the_usage() {
    for args in [
        &["no_such_experiment"][..],
        &["tables", "--sed", "3"],
        &["tables", "--federate"],
        &["sched", "--jobs", "10"],
        &["tables", "--seed"],
        &["--size", "small"],
    ] {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_mphpc_exp"))
            .args(args)
            .output();
        let run = run.expect("mphpc_exp runs");
        assert_eq!(run.status.code(), Some(2), "mphpc_exp {args:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.starts_with("usage: mphpc_exp <id>... | all"),
            "{stderr}"
        );
        assert!(
            stderr.contains("sched_scale"),
            "the usage lists the ids: {stderr}"
        );
        assert!(
            run.stdout.is_empty(),
            "mphpc_exp {args:?} went on to do work"
        );
    }
}
