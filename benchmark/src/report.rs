//! The A/A report: two sets of runs of the same code, compared the way a
//! later change will be compared against its parent — per (workload,
//! end-to-end metric) both medians, the quartile spread of each set, the
//! relative difference, and the bound from `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::stats::{median, spread};

/// `(better, bound)` per end-to-end metric name.
fn bounds(benchmark_json: &Path) -> Result<BTreeMap<String, (String, f64)>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let v = json::parse(&text)?;
    let mut out = BTreeMap::new();
    for m in v
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
        out.insert(
            field("name").ok_or("metric without name")?,
            (
                field("better").ok_or("metric without better")?,
                m.get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            ),
        );
    }
    Ok(out)
}

/// `workload → metric → values`, over every `<prefix>-*.json` in `dir`.
fn collect(dir: &Path, prefix: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let workloads = v
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{}: no workloads", file.display()))?;
        for (workload, result) in workloads {
            if result.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("{}: {workload} was not correct", file.display()));
            }
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{}: {workload} has no metrics", file.display()))?;
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: {workload} {name} has no value", file.display()))?;
                out.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(out)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(better: &str, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    }
}

pub fn aa(dir: &Path, benchmark_json: &Path) -> ExitCode {
    let run = || -> Result<bool, String> {
        let bounds = bounds(benchmark_json)?;
        let a = collect(dir, "A-")?;
        let b = collect(dir, "B-")?;
        if a.is_empty() || b.is_empty() {
            return Err(format!("{}: need A-*.json and B-*.json", dir.display()));
        }
        println!(
            "{:<13} {:<25} {:>3} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
            "workload", "metric", "n", "median A", "median B", "iqr A", "iqr B", "B worse", "bound"
        );
        let mut ok = true;
        for ((workload, name), va) in &a {
            let Some(vb) = b.get(&(workload.clone(), name.clone())) else {
                continue;
            };
            let Some((better, bound)) = bounds.get(name) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let (sa, sb) = if va.len() >= 2 && vb.len() >= 2 {
                (spread(va), spread(vb))
            } else {
                (0.0, 0.0)
            };
            // Worse in either direction: A/A has no "parent" side.
            let diff = worse_by(better, ma, mb).max(worse_by(better, mb, ma));
            // `setup_s` is held to its medians only; its spread is shown.
            let spread_ok = name == "setup_s" || (sa <= *bound && sb <= *bound);
            let verdict = if diff > *bound {
                ok = false;
                "MEDIANS DIFFER"
            } else if !spread_ok {
                ok = false;
                "SPREAD > BOUND"
            } else if sa.max(sb) > bound / 3.0 && name != "setup_s" {
                "ok (spread > bound/3)"
            } else {
                "ok"
            };
            println!(
                "{workload:<13} {name:<25} {:>3} {ma:>14.4} {mb:>14.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                va.len(),
                sa * 100.0,
                sb * 100.0,
                diff * 100.0,
                bound * 100.0
            );
        }
        Ok(ok)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("A/A: an end-to-end metric exceeds its bound");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("A/A report: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by("lower", 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by("lower", 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worse_by("higher", 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worse_by("higher", 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert_eq!(worse_by("lower", 0.0, 5.0), 0.0);
    }
}
