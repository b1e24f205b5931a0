//! Crash-recovery acceptance for the durable corpus: the power-cut
//! matrix.
//!
//! The central property (the acceptance criterion of the WAL work): for a
//! random sequence of durable mutations and **any byte-prefix cut of the
//! write-ahead log**, `Corpus::open_dir` recovers to a consistent catalog
//! — the state after some op boundary, never a mix — and every catalog
//! entry's artifact opens and answers queries. On top of that: the
//! fault-injection matrix (commits killed at each I/O point recover), the
//! WAL record corruption suite (bit flips, truncation, bad magic, bogus
//! length prefixes truncate at the first bad record and report replayed
//! vs dropped), and the epoch-GC guarantee that a pre-replace reader
//! keeps its generation byte-identically until dropped.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use xwq_core::Strategy;
use xwq_shard::{wal, Corpus, CorpusError, FailPoint, PlacementPolicy, ShardedSession};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory; each test cleans up after itself.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xwq-walrec-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A tiny document with exactly `k` `<x/>` children (so `//x` answers `k`
/// nodes and different versions are distinguishable by size).
fn build_doc(k: usize) -> (xwq_xml::Document, xwq_index::TreeIndex) {
    let xml = format!("<r>{}</r>", "<x/>".repeat(k));
    let doc = xwq_xml::parse(&xml).unwrap();
    let index = xwq_index::TreeIndex::build(&doc);
    (doc, index)
}

/// Copies the top-level regular files of a corpus directory (manifest,
/// WAL, artifacts — corpora are flat).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("MANIFEST.wal"))
        .map(|m| m.len())
        .unwrap_or(0)
}

/// The model the power-cut proptest checks recovery against: doc name →
/// `<x/>` count of its current version.
type Model = BTreeMap<String, usize>;

fn verify_recovered(dir: &Path, expected: &Model) -> Result<(), TestCaseError> {
    let corpus = Corpus::open_dir(dir, 2, PlacementPolicy::RoundRobin)
        .map_err(|e| TestCaseError::fail(format!("recovery must succeed: {e}")))?;
    let names: Vec<String> = expected.keys().cloned().collect();
    prop_assert_eq!(
        corpus.doc_names(),
        names,
        "catalog must match an op boundary"
    );
    // Every artifact the recovered catalog references opens from disk…
    for (name, entry) in corpus.durable_entries() {
        let (doc, _) = xwq_store::read_index_file(dir.join(&entry.file))
            .map_err(|e| TestCaseError::fail(format!("artifact {} of {name}: {e}", entry.file)))?;
        prop_assert_eq!(
            doc.len() as u64,
            entry.nodes,
            "{}: catalog row and artifact disagree",
            name
        );
    }
    // …and answers queries with the version the model expects.
    let session = ShardedSession::new(Arc::new(corpus), 0);
    for outcome in session.query_corpus("//x", Strategy::Auto).unwrap() {
        let got = outcome.result.unwrap().nodes.len();
        prop_assert_eq!(
            got,
            expected[&outcome.doc],
            "{}: recovered to a mixed or stale version",
            &outcome.doc
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The power-cut matrix. Ops are applied live; the WAL length after
    /// each op marks that op's commit boundary. Then every byte prefix of
    /// the final WAL is materialized as a crash image and recovered: the
    /// catalog must equal the model at the last boundary inside the
    /// prefix, with all artifacts openable and answering.
    #[test]
    fn recovery_from_any_wal_byte_prefix_is_consistent(
        ops in prop::collection::vec((0u8..3, 0usize..4, 1usize..6), 1..8),
    ) {
        let live = scratch("prop-live");
        let cuts = scratch("prop-cuts");
        let corpus =
            Corpus::open_or_create_dir(&live, 1, PlacementPolicy::RoundRobin).unwrap();
        let names = ["a", "b", "c", "d"];

        let mut model: Model = BTreeMap::new();
        // `states[i]` = (WAL length, catalog) after i committed ops.
        let mut states: Vec<(u64, Model)> = vec![(0, model.clone())];
        for &(kind, which, k) in &ops {
            let name = names[which];
            let (doc, index) = build_doc(k);
            match (kind, model.contains_key(name)) {
                (0, false) | (1, false) => {
                    corpus.add_durable(name, doc, index).unwrap();
                    model.insert(name.to_string(), k);
                }
                (0, true) | (1, true) => {
                    corpus.replace(name, doc, index).unwrap();
                    model.insert(name.to_string(), k);
                }
                (2, true) => {
                    corpus.remove(name).unwrap();
                    model.remove(name);
                }
                (2, false) => continue, // nothing to remove; no record
                _ => unreachable!(),
            }
            states.push((wal_len(&live), model.clone()));
        }
        drop(corpus);

        let bytes = std::fs::read(live.join("MANIFEST.wal")).unwrap();
        for cut in 0..=bytes.len() {
            let dir = cuts.join(format!("cut{cut}"));
            copy_dir(&live, &dir);
            std::fs::write(dir.join("MANIFEST.wal"), &bytes[..cut]).unwrap();
            let expected = states
                .iter()
                .rev()
                .find(|(len, _)| *len <= cut as u64)
                .map(|(_, m)| m)
                .expect("states[0] covers every cut");
            verify_recovered(&dir, expected)?;
            std::fs::remove_dir_all(&dir).unwrap();
        }

        std::fs::remove_dir_all(&live).unwrap();
        std::fs::remove_dir_all(&cuts).unwrap();
    }
}

#[test]
fn durable_ops_roundtrip_across_reopen_and_checkpoint() {
    let dir = scratch("roundtrip");
    {
        let corpus = Corpus::open_or_create_dir(&dir, 2, PlacementPolicy::RoundRobin).unwrap();
        let (doc, index) = build_doc(3);
        corpus.add_durable("alpha", doc, index).unwrap();
        let (doc, index) = build_doc(4);
        corpus.add_durable("beta", doc, index).unwrap();
        assert_eq!(corpus.wal_ops_since_checkpoint(), 2);
    }
    {
        // Reopen replays the log over the (still empty) manifest.
        let corpus = Corpus::open_dir(&dir, 2, PlacementPolicy::RoundRobin).unwrap();
        assert_eq!(corpus.doc_names(), vec!["alpha", "beta"]);
        assert_eq!(corpus.recovery_stats().replayed_ops, 2);
        assert!(!corpus.recovery_stats().torn, "clean shutdown, clean log");
        corpus.checkpoint().unwrap();
        assert_eq!(corpus.wal_ops_since_checkpoint(), 0);
    }
    {
        // After the checkpoint the manifest is the baseline: no replay.
        let corpus = Corpus::open_dir(&dir, 2, PlacementPolicy::RoundRobin).unwrap();
        assert_eq!(corpus.recovery_stats().replayed_ops, 0);
        assert_eq!(corpus.doc_names(), vec!["alpha", "beta"]);
        // Generations survive the checkpoint: a replace after reopen gets
        // a fresh stamp, not a recycled one.
        let (doc, index) = build_doc(5);
        corpus.replace("alpha", doc, index).unwrap();
        let entries: BTreeMap<_, _> = corpus.durable_entries().into_iter().collect();
        assert!(entries["alpha"].gen > entries["beta"].gen);
        corpus.remove("beta").unwrap();
    }
    let corpus = Corpus::open_dir(&dir, 1, PlacementPolicy::RoundRobin).unwrap();
    assert_eq!(corpus.doc_names(), vec!["alpha"]);
    let session = ShardedSession::new(Arc::new(corpus), 0);
    let out = session.query_corpus("//x", Strategy::Auto).unwrap();
    assert_eq!(out[0].result.as_ref().unwrap().nodes.len(), 5);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn duplicate_unknown_and_bad_names_are_rejected_durably() {
    let dir = scratch("names");
    let corpus = Corpus::open_or_create_dir(&dir, 1, PlacementPolicy::RoundRobin).unwrap();
    let (doc, index) = build_doc(1);
    corpus.add_durable("ok", doc, index).unwrap();
    for bad in ["", ".hidden", "a/b", "a\\b", "tab\tname"] {
        let (doc, index) = build_doc(1);
        assert!(
            matches!(
                corpus.add_durable(bad, doc, index),
                Err(CorpusError::BadName(_))
            ),
            "{bad:?} must be rejected"
        );
    }
    let (doc, index) = build_doc(1);
    assert!(matches!(
        corpus.add_durable("ok", doc, index),
        Err(CorpusError::DuplicateDocument(_))
    ));
    let (doc, index) = build_doc(1);
    assert!(matches!(
        corpus.replace("nope", doc, index),
        Err(CorpusError::UnknownDocument(_))
    ));
    assert!(matches!(
        corpus.remove("nope"),
        Err(CorpusError::UnknownDocument(_))
    ));
    // An in-memory corpus refuses durable mutations outright.
    let plain = Corpus::new(1, PlacementPolicy::RoundRobin);
    let (doc, index) = build_doc(1);
    assert!(matches!(
        plain.add_durable("x", doc, index),
        Err(CorpusError::NotDurable)
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite: the `.xwqi` corruption suite's style applied to WAL
/// records — truncation, bit flips, bogus length prefixes — asserting
/// recovery truncates at the *first* bad record and reports replayed vs
/// dropped.
#[test]
fn wal_record_corruption_truncates_at_first_bad_record() {
    let dir = scratch("corrupt-base");
    {
        let corpus = Corpus::open_or_create_dir(&dir, 1, PlacementPolicy::RoundRobin).unwrap();
        let (doc, index) = build_doc(2);
        corpus.add_durable("a", doc, index).unwrap();
        let (doc, index) = build_doc(3);
        corpus.add_durable("b", doc, index).unwrap();
        let (doc, index) = build_doc(4);
        corpus.replace("a", doc, index).unwrap();
        corpus.remove("b").unwrap();
    }
    let bytes = std::fs::read(dir.join("MANIFEST.wal")).unwrap();
    let scan = wal::scan(&bytes).unwrap();
    assert_eq!(scan.records.len(), 4);
    assert!(scan.torn.is_none());
    // Record start offsets, from the per-record encodings.
    let mut starts = vec![wal::WAL_HEADER_LEN];
    for r in &scan.records {
        starts.push(starts.last().unwrap() + r.encode().len());
    }
    // The catalog after replaying records 0..j.
    let states: [&[&str]; 5] = [&[], &["a"], &["a", "b"], &["a", "b"], &["a"]];

    let check = |tag: &str, image: &[u8], first_bad: usize| {
        let case = scratch(tag);
        copy_dir(&dir, &case);
        std::fs::write(case.join("MANIFEST.wal"), image).unwrap();
        let corpus = Corpus::open_dir(&case, 1, PlacementPolicy::RoundRobin).unwrap();
        let stats = corpus.recovery_stats();
        assert_eq!(
            stats.replayed_ops, first_bad as u64,
            "{tag}: replay must stop at the first bad record"
        );
        assert!(stats.torn, "{tag}: the damage must register as a torn tail");
        assert_eq!(
            stats.dropped_bytes,
            (image.len() - starts[first_bad]) as u64,
            "{tag}: dropped bytes are everything from the first bad record on"
        );
        assert_eq!(corpus.doc_names(), states[first_bad], "{tag}");
        // The truncation is durable: a second open finds a clean log.
        drop(corpus);
        let again = Corpus::open_dir(&case, 1, PlacementPolicy::RoundRobin).unwrap();
        assert!(!again.recovery_stats().torn, "{tag}: truncation must stick");
        assert_eq!(again.doc_names(), states[first_bad], "{tag}");
        std::fs::remove_dir_all(&case).unwrap();
    };

    for j in 0..4 {
        // Mid-record truncation.
        check(
            &format!("trunc-{j}"),
            &bytes[..starts[j] + (starts[j + 1] - starts[j]) / 2],
            j,
        );
        // A single flipped payload bit fails the record checksum.
        let mut flipped = bytes.clone();
        flipped[starts[j + 1] - 1] ^= 0x40;
        check(&format!("flip-{j}"), &flipped, j);
        // A bogus length prefix must not be chased off the end.
        let mut bogus = bytes.clone();
        bogus[starts[j]..starts[j] + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        check(&format!("len-{j}"), &bogus, j);
    }

    // A file that is not a WAL at all is refused, not truncated.
    let case = scratch("badmagic");
    copy_dir(&dir, &case);
    let mut image = bytes.clone();
    image[..4].copy_from_slice(b"NOPE");
    std::fs::write(case.join("MANIFEST.wal"), &image).unwrap();
    assert!(matches!(
        Corpus::open_dir(&case, 1, PlacementPolicy::RoundRobin),
        Err(CorpusError::Wal(wal::WalError::BadMagic))
    ));
    std::fs::remove_dir_all(&case).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The fault-injection matrix: a durable `add` killed at each I/O point
/// of the commit path must leave a state `open_dir` recovers from, with
/// the catalog on the old or the new side (never mixed) and the corpus
/// writable again after recovery.
#[test]
fn fault_injection_matrix_recovers_at_every_point() {
    let base = scratch("fault-base");
    {
        let corpus = Corpus::open_or_create_dir(&base, 1, PlacementPolicy::RoundRobin).unwrap();
        let (doc, index) = build_doc(2);
        corpus.add_durable("seed", doc, index).unwrap();
        corpus.checkpoint().unwrap();
    }
    let points = [
        FailPoint::StageSync,
        FailPoint::WalSync,
        FailPoint::DirSync,
        // Byte cuts inside the record being appended: before anything,
        // inside the record header, on its boundary, and mid-payload.
        FailPoint::WalWriteAt(0),
        FailPoint::WalWriteAt(1),
        FailPoint::WalWriteAt(4),
        FailPoint::WalWriteAt(12),
        FailPoint::WalWriteAt(13),
        FailPoint::WalWriteAt(30),
    ];
    for point in points {
        let dir = scratch("fault-case");
        copy_dir(&base, &dir);
        {
            let corpus = Corpus::open_dir(&dir, 1, PlacementPolicy::RoundRobin).unwrap();
            corpus.inject_fault(point).unwrap();
            let (doc, index) = build_doc(5);
            assert!(
                corpus.add_durable("new", doc, index).is_err(),
                "{point:?}: the injected fault must surface"
            );
            // Commit-path faults poison the writer until reopen.
            if !matches!(point, FailPoint::StageSync) {
                let (doc, index) = build_doc(1);
                assert!(
                    matches!(
                        corpus.add_durable("other", doc, index),
                        Err(CorpusError::Broken)
                    ),
                    "{point:?}: writer must be poisoned after a failed commit"
                );
            }
        }
        let corpus = Corpus::open_dir(&dir, 1, PlacementPolicy::RoundRobin).unwrap();
        let names = corpus.doc_names();
        assert!(
            names == vec!["seed"] || names == vec!["new", "seed"],
            "{point:?}: recovered to a mixed catalog: {names:?}"
        );
        for (name, entry) in corpus.durable_entries() {
            let (doc, _) = xwq_store::read_index_file(dir.join(&entry.file))
                .unwrap_or_else(|e| panic!("{point:?}: artifact of {name}: {e}"));
            assert_eq!(doc.len() as u64, entry.nodes, "{point:?}: {name}");
        }
        // No staged leftovers survive recovery.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let fname = entry.unwrap().file_name();
            assert!(
                !fname.to_string_lossy().starts_with(".stage."),
                "{point:?}: staged leftover {fname:?}"
            );
        }
        // The corpus accepts durable writes again.
        let (doc, index) = build_doc(3);
        corpus.add_durable("post", doc, index).unwrap();
        assert!(corpus.doc_names().contains(&"post".to_string()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// Acceptance: a reader holding a pre-replace epoch guard keeps the old
/// generation byte-identical until dropped — even across the checkpoint
/// that seals the replace — and the file is reclaimed right when the
/// guard goes.
#[test]
fn pre_replace_guard_serves_the_old_generation_byte_identically() {
    let dir = scratch("epoch");
    let corpus =
        Arc::new(Corpus::open_or_create_dir(&dir, 1, PlacementPolicy::RoundRobin).unwrap());
    let (doc, index) = build_doc(3);
    corpus.add_durable("doc", doc, index).unwrap();
    let old_entry = &corpus.durable_entries()[0].1;
    let old_path = dir.join(&old_entry.file);
    let old_bytes = std::fs::read(&old_path).unwrap();
    let old_len = corpus.get("doc").unwrap().document().len();

    // An in-flight reader: epoch pinned before the replace, document
    // handle in hand.
    let guard = corpus.pin();
    let held = corpus.get("doc").unwrap();

    let (doc, index) = build_doc(7);
    corpus.replace("doc", doc, index).unwrap();
    corpus.checkpoint().unwrap(); // seals the replace for GC

    // New lookups see the new generation; the pinned reader's view is
    // untouched and its artifact is still on disk, byte for byte.
    assert_eq!(corpus.get("doc").unwrap().document().len(), 8);
    assert_eq!(held.document().len(), old_len);
    assert!(old_path.exists(), "pinned epoch must keep the artifact");
    assert_eq!(std::fs::read(&old_path).unwrap(), old_bytes);
    assert_eq!(corpus.gc().pending(), 1);

    drop(held);
    drop(guard);
    assert!(!old_path.exists(), "drained + sealed artifact is reclaimed");
    assert_eq!(corpus.gc().unlinked_total(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `replace` swaps a document's shard-store entry under one lock: a reader
/// fanning out over the corpus while its documents are replaced hundreds
/// of times never finds a placed document missing from its shard.
#[test]
fn replace_never_shows_readers_a_missing_document() {
    let dir = scratch("replace-gap");
    let corpus =
        Arc::new(Corpus::open_or_create_dir(&dir, 2, PlacementPolicy::RoundRobin).unwrap());
    for name in ["a", "b"] {
        let (doc, index) = build_doc(4);
        corpus.add_durable(name, doc, index).unwrap();
    }
    let session = Arc::new(ShardedSession::new(Arc::clone(&corpus), 1));
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let (session, done) = (Arc::clone(&session), Arc::clone(&done));
        std::thread::spawn(move || {
            let (mut fan_outs, mut missing) = (0u64, Vec::new());
            while !done.load(Ordering::SeqCst) {
                for o in session.query_corpus("/r", Strategy::Auto).unwrap() {
                    if let Err(e) = o.result {
                        missing.push(format!("{}: {e}", o.doc));
                    }
                }
                fan_outs += 1;
            }
            (fan_outs, missing)
        })
    };
    // Documents big enough that building and dropping one takes a while:
    // the window a remove-then-insert swap would leave open.
    for round in 0..240 {
        let (doc, index) = build_doc(4_000 + round % 5);
        corpus.replace(["a", "b"][round % 2], doc, index).unwrap();
    }
    done.store(true, Ordering::SeqCst);
    let (fan_outs, missing) = reader.join().unwrap();
    assert!(fan_outs > 0);
    assert!(
        missing.is_empty(),
        "{} failed outcomes: {missing:?}",
        missing.len()
    );
    drop(session);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite: the manifest write path is atomic — no staging residue, and
/// a rewrite is all-or-nothing (exercised here as: the staged temp name
/// never survives a successful write).
#[test]
fn manifest_rewrites_leave_no_staging_residue() {
    let dir = scratch("manifest");
    let corpus = Corpus::open_or_create_dir(&dir, 1, PlacementPolicy::RoundRobin).unwrap();
    for (i, name) in ["a", "b", "c"].iter().enumerate() {
        let (doc, index) = build_doc(i + 1);
        corpus.add_durable(name, doc, index).unwrap();
        corpus.checkpoint().unwrap(); // rewrites MANIFEST.xwqc each time
    }
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(".stage."))
        .collect();
    assert!(leftovers.is_empty(), "staging residue: {leftovers:?}");
    // And the rewritten manifest round-trips.
    let reopened = Corpus::open_dir(&dir, 1, PlacementPolicy::RoundRobin).unwrap();
    assert_eq!(reopened.doc_names(), vec!["a", "b", "c"]);
    assert_eq!(reopened.recovery_stats().replayed_ops, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery telemetry: a torn open exports its counters through the
/// registry once wired.
#[test]
fn recovery_counters_export_through_the_registry() {
    let dir = scratch("recovery-obs");
    {
        let corpus = Corpus::open_or_create_dir(&dir, 1, PlacementPolicy::RoundRobin).unwrap();
        let (doc, index) = build_doc(2);
        corpus.add_durable("a", doc, index).unwrap();
        let (doc, index) = build_doc(3);
        corpus.add_durable("b", doc, index).unwrap();
    }
    // Tear the log mid-way through the second record.
    let path = dir.join("MANIFEST.wal");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

    let corpus = Arc::new(Corpus::open_dir(&dir, 1, PlacementPolicy::RoundRobin).unwrap());
    let stats = corpus.recovery_stats();
    assert!(stats.torn);
    // The 3-byte cut tears the whole final record off the log.
    assert!(stats.dropped_bytes >= 3, "{stats:?}");
    let session = ShardedSession::new(Arc::clone(&corpus), 1);
    let registry = xwq_obs::Registry::new();
    session.enable_telemetry(&registry);
    let text = registry.render(xwq_obs::RenderFormat::Prometheus);
    assert!(
        text.contains("xwq_wal_replayed_ops_total 1"),
        "replay counter:\n{text}"
    );
    assert!(
        text.contains("xwq_wal_torn_truncations_total 1"),
        "torn counter:\n{text}"
    );
    assert!(
        text.contains(&format!(
            "xwq_wal_dropped_bytes_total {}",
            stats.dropped_bytes
        )),
        "dropped-bytes counter:\n{text}"
    );
    // A durable commit after wiring lands in the latency histogram.
    let (doc, index) = build_doc(4);
    corpus.add_durable("c", doc, index).unwrap();
    let text = registry.render(xwq_obs::RenderFormat::Prometheus);
    assert!(
        text.contains("xwq_wal_commit_latency_ns_count 1"),
        "commit latency histogram:\n{text}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
