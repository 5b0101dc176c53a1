//! Open-loop end-to-end and per-layer benchmark of the moderated ticket
//! service and the lease ring. See README.md in this directory.
//!
//! ```text
//! benchmark [--workload W]... [--seed N] [--seconds S] [--trace [0|1]]
//!           [--repeat K] [--quick]
//! ```
//!
//! Each workload run happens in a fresh child process of this binary,
//! so memory, CPU and the service's growing trace never leak from one
//! run into the next. The parent prints every child's
//! `<workload> <metric> <value> <unit>` lines, then (with `--repeat`)
//! each metric's median and quartiles, and last one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod gen;
mod plan;
mod replay;
mod report;
mod ring;
mod service;
mod stats;
mod sys;

use std::fs;
use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use gen::Span;
use plan::Workload;
use report::RunResult;

/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;
/// Discarded warm-up before the measured window.
const WARM_S: f64 = 2.0;
/// `--quick`: a smoke profile of about two seconds per workload.
const QUICK_SECONDS: f64 = 1.0;
const QUICK_WARM_S: f64 = 0.5;
/// Set-ups per run; `setup_s` is the median of their durations, so one
/// scheduler hiccup in a set-up of a fraction of a millisecond does not
/// decide it. The last set-up serves the run.
pub const SETUPS: usize = 21;
/// Idle time before each set-up, so each starts from an idle process as
/// a user's would. Back-to-back set-ups ran on hot caches and awake CPUs
/// at about a third of the time, but their median moved 3x as much
/// between processes (IQR 33% against 9-10% of the median for gaps of
/// 20-300 ms, 10 processes each, on a 2-vCPU VM).
const SETUP_GAP: std::time::Duration = std::time::Duration::from_millis(20);
/// Where results and span files go, relative to the working directory.
const OUT_DIR: &str = "target/benchmark";

const USAGE: &str = "usage: benchmark [--workload mix|handoff|bulk16k|saturate|lease_ring]... \
[--seed N] [--seconds S] [--trace [0|1]] [--repeat K] [--quick]";

/// What one child run measures.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub warm: f64,
    pub trace: bool,
}

impl RunConfig {
    /// Length of each layer replay, ns: a traced run leaves the last
    /// third of its time to five paced replays.
    pub fn replay_ns(&self) -> u64 {
        (self.seconds / 15.0 * 1e9) as u64
    }
}

/// Sets up `SETUPS` times and returns the median of their durations, s,
/// with the last set-up.
pub fn timed_setups<T>(start: impl Fn() -> std::io::Result<T>) -> std::io::Result<(f64, T)> {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        std::thread::sleep(SETUP_GAP);
        let t = std::time::Instant::now();
        last = Some(start()?);
        seconds.push(t.elapsed().as_secs_f64());
    }
    Ok((
        stats::quartiles(&seconds).1,
        last.expect("at least one setup"),
    ))
}

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    quick: bool,
    child: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        quick: false,
        child: false,
    };
    let mut argv = argv.by_ref().peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                args.workloads
                    .push(Workload::from_name(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                // The ring keeps its newest 65,536 ack samples per node;
                // a minute at ~400 acks/s per node stays well inside.
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    if args.child && args.workloads.len() != 1 {
        return Err("--child runs exactly one workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args)
    } else {
        parent(&args)
    }
}

/// Runs one workload in this process.
pub fn run_one(w: Workload, cfg: &RunConfig, spans: &mut Vec<Span>) -> std::io::Result<RunResult> {
    match w {
        Workload::LeaseRing => ring::run(cfg, spans),
        _ => service::run(w, cfg, spans),
    }
}

fn child(args: &Args) -> ExitCode {
    let w = args.workloads[0];
    let (seconds, warm) = if args.quick {
        (QUICK_SECONDS, QUICK_WARM_S)
    } else {
        (args.seconds, WARM_S)
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds,
        warm,
        trace: args.trace,
    };
    let mut spans = Vec::new();
    let result = match run_one(w, &cfg, &mut spans) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", w.name());
            return ExitCode::from(2);
        }
    };
    for line in result.lines() {
        println!("{line}");
    }
    if args.trace {
        if let Err(e) = write_spans(w, &spans) {
            eprintln!("{}: writing spans: {e}", w.name());
        }
    }
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_spans(w: Workload, spans: &[Span]) -> std::io::Result<()> {
    fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(format!("spans-{}.jsonl", w.name()));
    let mut out = std::io::BufWriter::new(fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.id, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// One child's parsed report.
struct ChildRun {
    workload: Workload,
    metrics: Vec<(&'static str, f64)>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

fn run_child(args: &Args, w: Workload) -> Option<ChildRun> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| eprintln!("{}: cannot start: {e}", w.name()))
        .ok()?;
    let declared = report::declared(args.trace);
    let printed = report::printed(args.trace);
    let mut run = ChildRun {
        workload: w,
        metrics: Vec::new(),
        correct: false,
        attempted: 0,
        failed: 0,
    };
    let mut reported = false;
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        println!("{line}");
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [_, "result", correct, attempted, failed] => {
                let field = |s: &str| s.split_once('=').map(|(_, v)| v.to_string());
                run.correct = field(correct).as_deref() == Some("true");
                run.attempted = field(attempted)?.parse().ok()?;
                run.failed = field(failed)?.parse().ok()?;
                reported = true;
            }
            [_, name, value, _] => {
                if let Some((n, _)) = printed.iter().find(|(n, _)| n == name) {
                    run.metrics.push((n, value.parse().ok()?));
                }
            }
            _ => {}
        }
    }
    let complete = declared
        .iter()
        .all(|(n, _)| run.metrics.iter().any(|m| m.0 == *n));
    (reported && complete).then_some(run)
}

fn parent(args: &Args) -> ExitCode {
    let mut runs = Vec::new();
    let mut ok = true;
    for r in 0..args.repeat {
        // Alternate the order so no workload always runs first.
        let order: Vec<Workload> = if r % 2 == 0 {
            args.workloads.clone()
        } else {
            args.workloads.iter().rev().copied().collect()
        };
        for w in order {
            match run_child(args, w) {
                Some(run) => {
                    ok &= run.correct;
                    runs.push(run);
                }
                None => {
                    eprintln!("{}: run failed", w.name());
                    ok = false;
                }
            }
        }
    }
    let single = args.workloads.len() == 1;
    let mut metrics = Vec::new();
    for &w in &args.workloads {
        let mine: Vec<&ChildRun> = runs.iter().filter(|r| r.workload == w).collect();
        for (name, unit) in report::printed(args.trace) {
            let values: Vec<f64> = mine
                .iter()
                .filter_map(|r| r.metrics.iter().find(|m| m.0 == name).map(|m| m.1))
                .collect();
            if values.is_empty() {
                continue;
            }
            let (q1, median, q3) = stats::quartiles(&values);
            if values.len() > 1 {
                let iqr = if median != 0.0 {
                    (q3 - q1) / median.abs() * 100.0
                } else {
                    0.0
                };
                println!(
                    "{} {name} {median} {unit} median of {} runs, q1 {q1}, q3 {q3}, iqr {iqr:.2}%",
                    w.name(),
                    values.len()
                );
            }
            if !report::declared(args.trace).iter().any(|(n, _)| *n == name) {
                continue;
            }
            let key = if single {
                name.to_string()
            } else {
                format!("{}.{name}", w.name())
            };
            metrics.push((key, median, unit));
        }
    }
    let json = report::json(
        ok && !runs.is_empty(),
        runs.iter().map(|r| r.attempted).sum::<u64>().max(1),
        runs.iter().map(|r| r.failed).sum(),
        &metrics,
    );
    if let Err(e) = fs::create_dir_all(OUT_DIR)
        .and_then(|()| fs::write(Path::new(OUT_DIR).join("results.json"), format!("{json}\n")))
    {
        eprintln!("writing {OUT_DIR}/results.json: {e}");
    }
    if runs.is_empty() {
        return ExitCode::FAILURE;
    }
    println!("{json}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "..."` entries of one array of BENCHMARK.json.
    fn declared_names(json: &str, key: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("{key} missing"));
        let array = &json[start..];
        let array = &array[..array.find(']').expect("array ends")];
        array
            .split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    #[test]
    fn parses_the_single_run_command_line() {
        let argv = "--workload mix --seed 7 --seconds 10 --trace 1";
        let a = parse(argv.split(' ').map(String::from)).unwrap();
        assert_eq!(a.workloads, vec![Workload::Mix]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = parse("--trace 0 --repeat 3".split(' ').map(String::from)).unwrap();
        assert!(!a.trace && a.repeat == 3 && a.workloads.len() == 5);
        let a = parse(["--trace".to_string()].into_iter()).unwrap();
        assert!(a.trace);
        assert!(parse("--workload nope".split(' ').map(String::from)).is_err());
        assert!(parse("--repeat 0".split(' ').map(String::from)).is_err());
    }

    #[test]
    fn quick_runs_print_every_declared_metric() {
        // Relative to this file, so the path holds whether the workspace
        // or this directory's own manifest builds it.
        let json = include_str!("../../../../../BENCHMARK.json");
        let workloads = declared_names(json, "workloads");
        assert_eq!(
            workloads,
            Workload::ALL.map(|w| w.name().to_string()).to_vec(),
            "BENCHMARK.json workloads"
        );
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let names = declared_names(json, key);
            let table: Vec<&str> = report::declared(trace).iter().map(|(n, _)| *n).collect();
            assert_eq!(names, table, "{key} in BENCHMARK.json and report.rs");
            for w in Workload::ALL {
                let cfg = RunConfig {
                    seed: 3,
                    seconds: QUICK_SECONDS,
                    warm: QUICK_WARM_S,
                    trace,
                };
                let result = run_one(w, &cfg, &mut Vec::new()).expect("quick run");
                let lines = result.lines().join("\n");
                for name in &names {
                    let prefix = format!("{} {name} ", w.name());
                    assert!(
                        lines.lines().any(|l| l.starts_with(&prefix)),
                        "{} does not print {name}:\n{lines}",
                        w.name()
                    );
                }
            }
        }
    }
}
