//! The environment block recorded beside every result: a number only
//! means something next to the machine, toolchain and pinned
//! configuration that produced it.

use std::path::Path;
use std::process::Command;

use crate::bed;
use crate::json::{obj, Json};

/// First line of a command's stdout, or `"unknown"` (the driver's
/// checkout, for one, is not a git repository).
fn first_line(cmd: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpuinfo(field: &str) -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The lines of `[profile.release]` in the benchmark's manifest.
fn release_profile(bench_dir: &Path) -> String {
    let manifest = std::fs::read_to_string(bench_dir.join("Cargo.toml")).unwrap_or_default();
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter(|l| !l.trim().is_empty())
        .collect::<Vec<_>>()
        .join("; ")
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn block(bench_dir: &Path) -> Json {
    let flags = cpuinfo("flags");
    let has = |f: &str| Json::Bool(flags.split_whitespace().any(|x| x == f));
    obj([
        (
            "commit",
            Json::Str(first_line("git", &["rev-parse", "HEAD"], bench_dir)),
        ),
        (
            "rustc",
            Json::Str(first_line("rustc", &["--version"], bench_dir)),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", Json::Str(cpuinfo("model name"))),
        ("cpu_bmi2", has("bmi2")),
        ("cpu_popcnt", has("popcnt")),
        // Default features only: the `simd` and `probe-counters` features
        // of xwq-succinct are off, as in the shipped `xwq` binary.
        ("feature_simd", Json::Bool(false)),
        // The `[profile.release]` table the benchmark was built with, as
        // written (everything it does not name is cargo's default).
        ("release_profile", Json::Str(release_profile(bench_dir))),
        (
            "pinned",
            obj([
                ("shards", Json::Num(bed::SHARDS as f64)),
                ("placement", Json::Str(bed::PLACEMENT.token().to_string())),
                (
                    "workers_per_shard",
                    Json::Num(bed::WORKERS_PER_SHARD as f64),
                ),
                ("cache_capacity", Json::Num(bed::CACHE_CAPACITY as f64)),
                ("admission_max_active", Json::Num(bed::MAX_ACTIVE as f64)),
                ("admission_max_waiting", Json::Num(bed::MAX_WAITING as f64)),
                ("admission_timeout", Json::Null),
                ("http_workers", Json::Num(bed::HTTP_WORKERS as f64)),
                ("client_threads_in_process", Json::Num(1.0)),
                ("client_connections_http", Json::Num(2.0)),
                (
                    "churn_writes_per_s",
                    Json::Num(crate::workload::CHURN_WRITES_PER_S),
                ),
                (
                    "churn_checkpoint_every",
                    Json::Num(crate::workload::CHECKPOINT_EVERY as f64),
                ),
            ]),
        ),
    ])
}
