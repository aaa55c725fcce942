//! The command line: `run`, `calibrate`, `compare`.

use crate::compare::{compare, difference_table, summarize, Calibration};
use crate::report::{contract_line, human_table, Host, ResultFile, RunRecord};
use crate::run::{run_workload, RunArgs};
use crate::spec::BenchmarkSpec;
use crate::workload::Workload;
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: mphpc_perf run <workload>|--workload <workload>|--all [--seed N] [--seconds S]
                      [--threads T] [--trace [0|1]] [--smoke] [--out FILE]
       mphpc_perf calibrate [--sets K] [--runs R] [--seed N] [--seconds S] [--threads T]
                            [--out FILE]
       mphpc_perf compare A.json B.json

workloads: collect_trace train_eval serve_open sched_backlog sched_stream sched_fed

`run` executes one workload in one process, checks its outputs, prints every
metric by name with unit and sample count, and prints as its last line the
JSON object the benchmark driver reads. `--all` runs each workload in a
process of its own. Exit code 1 means an operation failed or an output was
wrong; 2 means the harness could not run.

`calibrate` runs K sets (default 2) of R runs (default 10, seeds N, N+1, ..)
of every workload and writes each end-to-end metric's median, quartiles and
relative spread per set to FILE, and each set's runs to FILE.set<k>.json; it
exits 1 if a spread exceeds its bound or two sets disagree by more than it.
`compare` exits 1 if any end-to-end metric's median differs between the two
result files by more than its bound; per-layer metrics are only reported.";

#[derive(Debug, Clone, PartialEq)]
struct RunOptions {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    threads: usize,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_run(args: &[String], spec: &BenchmarkSpec) -> Result<RunOptions, String> {
    let mut o = RunOptions {
        workload: None,
        all: false,
        seed: 2024,
        seconds: spec.run_seconds as f64,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        trace: false,
        smoke: false,
        out: None,
    };
    let workload =
        |name: &str| Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"));
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        i += 1;
        let mut value = |what: &str| -> Result<&str, String> {
            let v = args.get(i).ok_or_else(|| format!("{arg} needs {what}"))?;
            i += 1;
            Ok(v.as_str())
        };
        match arg {
            "--workload" => o.workload = Some(workload(value("a workload")?)?),
            "--all" => o.all = true,
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a number")?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--threads" => {
                o.threads = value("a number")?
                    .parse()
                    .map_err(|_| "--threads needs a number")?;
                if !(1..=1024).contains(&o.threads) {
                    return Err("--threads must be in 1..=1024".to_string());
                }
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand the value is optional.
                o.trace = match args.get(i).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(value("a path")?.to_string()),
            name if !name.starts_with('-') && o.workload.is_none() => {
                o.workload = Some(workload(name)?)
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if o.all == o.workload.is_some() {
        return Err("name one workload, or --all".to_string());
    }
    Ok(o)
}

fn write_out(path: &str, records: Vec<RunRecord>) -> Result<(), String> {
    let file = ResultFile {
        host: Host::detect(),
        records,
    };
    std::fs::write(path, file.to_json()).map_err(|e| format!("{path}: {e}"))
}

/// Run one workload in this process.
fn run_one(o: &RunOptions, workload: Workload, spec: &BenchmarkSpec) -> Result<ExitCode, String> {
    let record = run_workload(RunArgs {
        workload,
        seed: o.seed,
        seconds: o.seconds,
        threads: o.threads,
        trace: o.trace,
        smoke: o.smoke,
    })?;
    print!("{}", human_table(&record));
    let line = contract_line(&record, spec)?;
    let correct = record.correct;
    if let Some(path) = &o.out {
        write_out(path, vec![record])?;
    }
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Run `workload` in a child process of this executable and read back its
/// record, so that peak memory and every cache start fresh per workload.
fn run_child(
    o: &RunOptions,
    workload: Workload,
    seed: u64,
    scratch: &str,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--threads", &o.threads.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }])
        .args(["--out", scratch]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("starting the {} run: {e}", workload.name()))?;
    let file = ResultFile::read(scratch).map_err(|e| {
        format!(
            "the {} run left no result ({e}); it printed:\n{}{}",
            workload.name(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let _ = std::fs::remove_file(scratch);
    file.records
        .into_iter()
        .next()
        .ok_or_else(|| "empty result file".to_string())
}

fn scratch_file(tag: &str) -> Result<String, String> {
    let dir = crate::run::output_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir
        .join(format!("{tag}-{}.json", std::process::id()))
        .display()
        .to_string())
}

fn cmd_run(args: &[String], spec: &BenchmarkSpec) -> Result<ExitCode, String> {
    let o = parse_run(args, spec)?;
    if let Some(workload) = o.workload {
        return run_one(&o, workload, spec);
    }
    let scratch = scratch_file("run")?;
    let mut records = Vec::new();
    for workload in Workload::ALL {
        let record = run_child(&o, workload, o.seed, &scratch)?;
        print!("{}", human_table(&record));
        records.push(record);
    }
    let correct = records.iter().all(|r| r.correct);
    if let Some(path) = &o.out {
        write_out(path, records)?;
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_calibrate(args: &[String], spec: &BenchmarkSpec) -> Result<ExitCode, String> {
    let (mut sets, mut runs, mut out) = (2usize, 10usize, "calibration.json".to_string());
    let mut passthrough = vec!["--all".to_string()];
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--sets" => sets = value.parse().map_err(|_| "--sets needs a number")?,
            "--runs" => runs = value.parse().map_err(|_| "--runs needs a number")?,
            "--out" => out = value.clone(),
            "--seed" | "--seconds" | "--threads" => {
                passthrough.extend([args[i].clone(), value.clone()])
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += 2;
    }
    if sets == 0 || runs < 2 {
        return Err("calibrate needs at least one set of at least two runs".to_string());
    }
    let o = parse_run(&passthrough, spec)?;
    let seeds: Vec<u64> = (0..runs as u64).map(|r| o.seed + r).collect();
    let scratch = scratch_file("calibrate")?;
    let host = Host::detect();
    let mut files = Vec::new();
    for set in 0..sets {
        let mut records = Vec::new();
        for workload in Workload::ALL {
            for &seed in &seeds {
                let record = run_child(&o, workload, seed, &scratch)?;
                eprintln!(
                    "set {set} {} seed {seed}: {}",
                    workload.name(),
                    if record.correct { "ok" } else { "FAILED" }
                );
                records.push(record);
            }
        }
        // Each set is also kept whole, as a result file `compare` reads.
        let file = ResultFile {
            host: host.clone(),
            records,
        };
        let set_path = format!("{}.set{set}.json", out.trim_end_matches(".json"));
        std::fs::write(&set_path, file.to_json()).map_err(|e| format!("{set_path}: {e}"))?;
        files.push(file);
    }
    let mut agreement = Vec::new();
    for later in &files[1..] {
        agreement.extend(
            compare(&files[0], later, spec)
                .into_iter()
                .filter(|d| d.bound.is_some()),
        );
    }
    let calibration = Calibration {
        host,
        seconds: o.seconds,
        threads: o.threads,
        seeds,
        sets: files.iter().map(|f| summarize(f, spec)).collect(),
        agreement,
    };
    let text = serde_json::to_string(&calibration).expect("calibration serialises");
    std::fs::write(&out, text).map_err(|e| format!("{out}: {e}"))?;

    let mut ok = files.iter().all(|f| f.records.iter().all(|r| r.correct));
    for (k, set) in calibration.sets.iter().enumerate() {
        for s in set {
            let bound = spec.end_to_end(&s.metric).map_or(0.0, |m| m.bound);
            let steady = s.metric == "setup_s" || s.spread <= bound;
            ok &= steady;
            println!(
                "set {k} {:<14} {:<26} median {:>14.4} {:<7} spread {:>6.2} % of bound {:>4.0} %{}",
                s.workload,
                s.metric,
                s.median,
                s.unit,
                s.spread * 100.0,
                bound * 100.0,
                if steady { "" } else { "  TOO WIDE" }
            );
        }
    }
    print!("{}", difference_table(&calibration.agreement));
    ok &= calibration.agreement.iter().all(|d| d.within);
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_compare(args: &[String], spec: &BenchmarkSpec) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".to_string());
    };
    let rows = compare(&ResultFile::read(a)?, &ResultFile::read(b)?, spec);
    if rows.iter().all(|d| d.bound.is_none()) {
        return Err("the two files share no end-to-end metric on any workload".to_string());
    }
    print!("{}", difference_table(&rows));
    Ok(if rows.iter().all(|d| d.within) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

pub fn main(args: &[String]) -> ExitCode {
    let spec = BenchmarkSpec::embedded();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest, &spec),
        Some((cmd, rest)) if cmd == "calibrate" => cmd_calibrate(rest, &spec),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest, &spec),
        Some((cmd, _)) if cmd == "--help" || cmd == "-h" || cmd == "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err("expected `run`, `calibrate` or `compare`".to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("mphpc_perf: {e}\n\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_drivers_argument_form_and_the_manual_one_both_parse() {
        let spec = BenchmarkSpec::embedded();
        let o = parse_run(
            &args(&[
                "--workload",
                "sched_fed",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "0",
            ]),
            &spec,
        )
        .unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Some(Workload::SchedFed), 7, 3.0, false)
        );
        let o = parse_run(&args(&["--workload", "sched_fed", "--trace", "1"]), &spec).unwrap();
        assert!(o.trace);
        let o = parse_run(
            &args(&["serve_open", "--trace", "--threads", "1", "--smoke"]),
            &spec,
        )
        .unwrap();
        assert_eq!(
            (o.workload, o.trace, o.threads, o.smoke),
            (Some(Workload::ServeOpen), true, 1, true)
        );
        assert_eq!(o.seconds, spec.run_seconds as f64);
        assert!(parse_run(&args(&["--all"]), &spec).unwrap().all);
        for bad in [
            &["nope"][..],
            &[],
            &["--all", "serve_open"],
            &["serve_open", "--seconds", "0"],
            &["serve_open", "--threads", "0"],
            &["serve_open", "--seed"],
            &["serve_open", "extra"],
        ] {
            assert!(parse_run(&args(bad), &spec).is_err(), "{bad:?}");
        }
    }
}
