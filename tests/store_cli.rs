//! End-to-end CLI tests for the persistence workflow:
//! `xwq index doc.xml -o doc.xwqi && xwq query --index doc.xwqi '<xpath>'`
//! must produce node-for-node identical output to direct evaluation on
//! `doc.xml`, for every strategy and both topologies.

use std::path::PathBuf;
use std::process::{Command, Output};

fn xwq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xwq"))
        .args(args)
        .output()
        .expect("spawn xwq")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xwq-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

const STRATEGIES: [&str; 6] = ["naive", "pruning", "jumping", "memo", "opt", "hybrid"];

const DOC: &str = r#"<site><regions><europe><item id="1"><name>gold ring</name></item>
<item id="2"><name>silver spoon</name></item></europe>
<asia><item id="3"><name>jade dragon</name><mailbox><mail/></mailbox></item></asia></regions>
<people><person id="p0"><name>Ann</name></person></people></site>"#;

const QUERIES: [&str; 5] = [
    "//item",
    "//item[name]",
    "/site/regions//item/@id",
    "//person/name",
    "//item[mailbox]",
];

#[test]
fn indexed_query_output_is_identical_to_direct_for_every_strategy() {
    let dir = tmp_dir("roundtrip");
    let xml = dir.join("doc.xml");
    std::fs::write(&xml, DOC).unwrap();
    let xml = xml.to_str().unwrap();

    for topo in ["array", "succinct"] {
        let xwqi = dir.join(format!("doc-{topo}.xwqi"));
        let xwqi = xwqi.to_str().unwrap();
        let out = xwq(&["index", xml, "-o", xwqi, "--topology", topo]);
        assert!(out.status.success(), "index failed: {out:?}");

        for q in QUERIES {
            for s in STRATEGIES {
                let direct = xwq(&["query", q, xml, "--strategy", s, "--text"]);
                let indexed = xwq(&["query", "--index", xwqi, q, "--strategy", s, "--text"]);
                assert!(direct.status.success(), "direct {q} {s}: {direct:?}");
                assert!(indexed.status.success(), "indexed {q} {s}: {indexed:?}");
                assert_eq!(
                    String::from_utf8_lossy(&direct.stdout),
                    String::from_utf8_lossy(&indexed.stdout),
                    "{topo}/{s}: output diverges on {q}"
                );
                assert!(
                    !String::from_utf8_lossy(&direct.stdout).trim().is_empty(),
                    "{q} unexpectedly selected nothing"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_and_version_exit_zero() {
    for flag in ["--help", "-h", "--version", "-V"] {
        let out = xwq(&[flag]);
        assert!(out.status.success(), "{flag} must exit 0: {out:?}");
        assert!(!out.stdout.is_empty(), "{flag} must print to stdout");
    }
    let help = xwq(&["--help"]);
    let text = String::from_utf8_lossy(&help.stdout);
    for needle in ["index", "query", "batch", "--strategy"] {
        assert!(text.contains(needle), "help is missing {needle:?}");
    }
}

#[test]
fn bad_usage_exits_two_and_missing_files_exit_one() {
    assert_eq!(xwq(&[]).status.code(), Some(2));
    assert_eq!(
        xwq(&["query", "--strategy", "bogus", "//a", "x.xml"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        xwq(&["index", "nope.xml", "-o", "out.xwqi"]).status.code(),
        Some(1)
    );
    assert_eq!(
        xwq(&["query", "--index", "nope.xwqi", "//a"]).status.code(),
        Some(1)
    );
    let unknown = xwq(&["query", "--frobnicate", "//a", "x.xml"]);
    assert_eq!(unknown.status.code(), Some(2));
    // Flags that only apply to another subcommand are rejected, not
    // silently ignored.
    assert_eq!(
        xwq(&["query", "//a", "x.xml", "--repeat", "5"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        xwq(&["batch", "--xml", "x.xml", "q.txt", "--text"])
            .status
            .code(),
        Some(2)
    );
}

#[test]
fn corrupt_index_file_fails_cleanly() {
    let dir = tmp_dir("corrupt");
    let xml = dir.join("doc.xml");
    std::fs::write(&xml, DOC).unwrap();
    let xwqi = dir.join("doc.xwqi");
    let out = xwq(&["index", xml.to_str().unwrap(), "-o", xwqi.to_str().unwrap()]);
    assert!(out.status.success());

    // Truncate the file and flip a payload byte: both must exit 1 with a
    // format diagnostic, not crash.
    let bytes = std::fs::read(&xwqi).unwrap();
    let trunc = dir.join("trunc.xwqi");
    std::fs::write(&trunc, &bytes[..bytes.len() / 2]).unwrap();
    let out = xwq(&["query", "--index", trunc.to_str().unwrap(), "//item"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("truncated"));

    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    let bad = dir.join("bad.xwqi");
    std::fs::write(&bad, &flipped).unwrap();
    let out = xwq(&["query", "--index", bad.to_str().unwrap(), "//item"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("corrupt"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_serves_a_workload_with_cache_stats() {
    let dir = tmp_dir("batch");
    let xml = dir.join("doc.xml");
    std::fs::write(&xml, DOC).unwrap();
    let xwqi = dir.join("doc.xwqi");
    assert!(
        xwq(&["index", xml.to_str().unwrap(), "-o", xwqi.to_str().unwrap()])
            .status
            .success()
    );
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "# workload\n//item\n//item[name]\n\n//person\n").unwrap();

    let out = xwq(&[
        "batch",
        "--index",
        xwqi.to_str().unwrap(),
        queries.to_str().unwrap(),
        "--repeat",
        "10",
        "--stats",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("//item[name]"), "per-query counts missing");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cache:"), "cache stats missing: {stderr}");
    assert!(
        stderr.contains("27 hits"),
        "3 queries x 10 rounds - 3 misses: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `batch --threads` runs the workload on that many workers and reports
/// them; `--threads` outside `batch` is a usage error.
#[test]
fn batch_threads_flag_is_batch_only() {
    let dir = tmp_dir("threads");
    let xml = dir.join("doc.xml");
    std::fs::write(&xml, DOC).unwrap();
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "//item\n//person\n").unwrap();
    let out = xwq(&[
        "batch",
        "--xml",
        xml.to_str().unwrap(),
        queries.to_str().unwrap(),
        "--threads",
        "4",
        "--stats",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("4 threads"),
        "thread count missing: {stderr}"
    );
    assert!(
        stderr.contains("eval totals:"),
        "eval totals missing: {stderr}"
    );
    // --threads outside batch is rejected.
    assert_eq!(
        xwq(&["query", "//a", "x.xml", "--threads", "2"])
            .status
            .code(),
        Some(2)
    );
    std::fs::remove_dir_all(&dir).ok();
}
