//! Regenerates the experiment tables of `EXPERIMENTS.md` and, with
//! `--report FILE`, writes the tables it ran as one JSON object keyed
//! by experiment name (`BENCH_moderator.json` holds e9–e15,
//! `BENCH_service.json` e16–e17).
//!
//! ```text
//! cargo run -p amf-bench --release --bin experiments -- all
//! cargo run -p amf-bench --release --bin experiments -- e1 e6
//! cargo run -p amf-bench --release --bin experiments -- --quick all
//! cargo run -p amf-bench --release --bin experiments -- --report BENCH_service.json e16 e17
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    let mut report = None;
    let mut names = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--report" => match args.next() {
                Some(path) => report = Some(path),
                None => {
                    eprintln!("missing value for --report");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: experiments [--quick] [--report FILE] [e1..e17 | v1 | all]...");
                return ExitCode::SUCCESS;
            }
            other => names.push(other.to_string()),
        }
    }
    let tables = match amf_bench::experiments::run(&names, quick) {
        Ok(tables) => tables,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = report {
        let json = amf_bench::experiments::report_json(&tables);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("report: {path}");
    }
    ExitCode::SUCCESS
}
