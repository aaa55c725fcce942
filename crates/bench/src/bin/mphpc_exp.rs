//! `mphpc_exp <id>… | all`: the one experiment driver. The registry, the
//! command line and the claims table are `mphpc_bench`'s (`src/lib.rs`).

fn main() -> std::process::ExitCode {
    mphpc_bench::run(std::env::args().skip(1))
}
