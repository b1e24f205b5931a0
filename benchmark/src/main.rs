//! `xwq-benchmark` — the repo's benchmark, measured from outside: five
//! workloads over the `xwq` crates, every answer checked, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced
//! ladder replay. See `benchmark/README.md`; run through
//! `benchmark/run.sh`.

mod bed;
mod env;
mod httpc;
mod inputs;
mod json;
mod ladder;
mod oracle;
mod probes;
mod report;
mod rng;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use inputs::Workload;
use json::{obj, Json};
use workload::Args;

const USAGE: &str = "usage: run.sh [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--smoke]
       run.sh --report <dir>     (A/A tables over <dir>/A-*.json and <dir>/B-*.json)
workloads: doc-hot doc-adhoc automaton corpus-serve corpus-churn (default: all, one child process each)";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    dir: PathBuf,
    report: Option<PathBuf>,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        report: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        argv.get(*i)
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let name = value(&mut i)?;
                cli.workload =
                    Some(Workload::from_name(name).ok_or(format!("no workload named {name:?}"))?);
            }
            "--seed" => cli.seed = value(&mut i)?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                let s: f64 = value(&mut i)?
                    .parse()
                    .map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                cli.seconds = Some(s);
            }
            // `--trace` alone or `--trace 1` turns tracing on, `--trace 0` off.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--smoke" => cli.smoke = true,
            "--dir" => cli.dir = PathBuf::from(value(&mut i)?),
            "--report" => cli.report = Some(PathBuf::from(value(&mut i)?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(cli)
}

fn out_dir(dir: &Path) -> PathBuf {
    let out = dir.join("out");
    std::fs::create_dir_all(&out).expect("out directory is creatable");
    out
}

fn result_path(dir: &Path, workload: Workload, trace: bool) -> PathBuf {
    let suffix = if trace { "-trace" } else { "" };
    out_dir(dir).join(format!("result-{}{suffix}.json", workload.name()))
}

/// One workload in this process.
fn run_one(args: &Args) -> ExitCode {
    let outcome = workload::run(args);
    let name = args.workload.name();
    for m in &outcome.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    if let Some(Json::Str(fp)) = outcome.notes.get("fingerprint") {
        println!("{name} fingerprint {fp}");
    }
    if let Some(Json::Str(e)) = outcome.notes.get("first_error") {
        eprintln!("{name}: first failure: {e}");
    }
    let result = workload::outcome_json(args, &outcome);
    std::fs::write(
        result_path(&args.dir, args.workload, args.trace),
        result.render() + "\n",
    )
    .expect("result file is written");
    // The last line of stdout: the result as the driver reads it.
    let line = obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", result.get("metrics").expect("metrics").clone()),
    ]);
    println!("{}", line.render());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a child process of its own (so `peak_rss_mb`
/// is the workload's), then `out/results.json` with the environment.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &cli.seed.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .arg("--dir")
            .arg(&cli.dir);
        if let Some(s) = cli.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if cli.smoke {
            cmd.arg("--smoke");
        }
        // The child's stdout (metric lines, then its result line) passes
        // through; `status` waits for it to end.
        let status = cmd.status().expect("child workload process starts");
        ok &= status.success();
        let text = std::fs::read_to_string(result_path(&cli.dir, w, cli.trace)).unwrap_or_default();
        match json::parse(&text) {
            Ok(v) => workloads.push((w.name(), v)),
            Err(_) => ok = false,
        }
    }
    let results = obj([
        ("seed", Json::Num(cli.seed as f64)),
        ("trace", Json::Bool(cli.trace)),
        ("smoke", Json::Bool(cli.smoke)),
        // This benchmark defines the measurement; it claims no gain.
        ("claim", Json::Null),
        ("environment", env::block(&cli.dir)),
        ("workloads", obj(workloads)),
    ]);
    let name = if cli.trace {
        "results-trace.json"
    } else {
        "results.json"
    };
    std::fs::write(out_dir(&cli.dir).join(name), results.render() + "\n")
        .expect("results file is written");
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("a workload failed or answered wrongly");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &cli.report {
        return report::aa(dir, &cli.dir.join("..").join("BENCHMARK.json"));
    }
    match cli.workload {
        Some(workload) => run_one(&Args {
            workload,
            seed: cli.seed,
            // Smoke phases are 1 s; the default is BENCHMARK.json's
            // `run_seconds`.
            seconds: cli.seconds.unwrap_or(if cli.smoke { 1.0 } else { 15.0 }),
            trace: cli.trace,
            smoke: cli.smoke,
            dir: cli.dir,
        }),
        None => run_all(&cli),
    }
}
