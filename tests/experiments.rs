//! The experiment registry against the documents and the command line:
//! every artefact row of DESIGN.md §3 names a registry id that lists the
//! row, and a command line `mphpc_exp` cannot run ends in the usage.

use mphpc_bench::{experiment, num, number, print_table, REGISTRY};
use std::process::Command;

#[test]
fn every_artefact_row_of_design_section_3_resolves_to_a_registry_entry() {
    let design = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(design).expect("DESIGN.md");
    let section = design
        .split("## 3. Experiment index")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md §3");
    let mut rows = Vec::new();
    for line in section.lines().filter(|l| l.starts_with("| ")) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let (row, regenerator) = (cells[1], cells[5]);
        if row == "ID" || row.starts_with('-') {
            continue;
        }
        let id = regenerator
            .strip_prefix("`mphpc_exp ")
            .and_then(|rest| rest.split('`').next())
            .unwrap_or_else(|| {
                panic!("{row}: regenerator {regenerator:?} is not `mphpc_exp <id>`")
            });
        let entry = experiment(id).unwrap_or_else(|| panic!("{row}: no registry entry {id:?}"));
        assert!(
            entry.artifact.split(' ').any(|a| a == row),
            "{row}: entry {id:?} lists {:?}",
            entry.artifact
        );
        rows.push(row);
    }
    let listed = REGISTRY.iter().flat_map(|e| e.artifact.split(' '));
    for artefact in listed {
        assert!(
            rows.contains(&artefact),
            "{artefact} is not a row of DESIGN.md §3"
        );
    }
    assert_eq!(
        rows.len(),
        3 + 1 + 7 + 2 + 6,
        "T1–T3, D1, F2–F8, A1–A2, X1–X6"
    );
}

#[test]
fn ids_are_unique() {
    for (i, e) in REGISTRY.iter().enumerate() {
        assert!(REGISTRY[..i].iter().all(|o| o.id != e.id), "{} twice", e.id);
    }
}

#[test]
fn cells_parse_to_their_leading_number_and_missing_ones_to_nan() {
    let t = [print_table(
        "Fig. 9 — demo",
        &["k", "v", "w"],
        vec![vec!["a".into(), "1.443 h".into(), "+2.3%".into()]],
    )];
    assert_eq!(num(&t, "Fig. 9", "a", "v"), 1.443);
    assert_eq!(num(&t, "Fig. 9", "a", "w"), 2.3);
    for (title, row, col) in [
        ("Fig. 8", "a", "v"),
        ("Fig. 9", "b", "v"),
        ("Fig. 9", "a", "x"),
    ] {
        assert!(num(&t, title, row, col).is_nan());
    }
    assert!(number("–").is_nan() && number("").is_nan());
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
        let run = Command::new(env!("CARGO_BIN_EXE_mphpc_exp"))
            .args(args)
            .output()
            .expect("mphpc_exp runs");
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
