//! The corpus write-ahead log (`MANIFEST.wal`): checksummed,
//! length-prefixed, generation-stamped mutation records that make corpus
//! updates durable and crash-recoverable.
//!
//! The manifest (`MANIFEST.xwqc`) is the *checkpoint*: a full catalog
//! snapshot, rewritten atomically but not on every mutation. The WAL is
//! the delta on top of it — one record per committed `add`/`replace`/
//! `remove`. A commit is: append the record, `sync_data` the log, fsync
//! the corpus directory. Recovery on open replays the log over the last
//! checkpoint and truncates any torn tail (short record or bad checksum),
//! so a crash at any byte lands the catalog on either the pre-op or the
//! post-op state, never a mix.
//!
//! ```text
//! file   := magic "XWQW" | version u32
//!         | record*
//! record := payload_len u32 | crc u64 (over payload) | payload
//! payload:= kind u8 | gen u64 | kind-specific fields
//!   AddDoc / ReplaceDoc : name str | file str | nodes u64
//!   RemoveDoc           : name str
//!   Checkpoint          : (gen = next generation to hand out)
//! str    := len u32 | utf-8 bytes
//! ```
//!
//! All integers are little-endian. The crc is the same pinned mixer the
//! `.xwqi` payload uses ([`xwq_store::payload_checksum`]), so the two
//! on-disk formats share one checksum spec.
//!
//! # Fault injection
//!
//! The commit path writes through a trait object ([`WalFile`]) so tests
//! and the CI crash matrix can install a [`FaultPlan`]: stop the log at an
//! exact byte (leaving a genuinely torn record on disk), or fail one of
//! the fsync points (log, staged artifact, directory). A faulted commit
//! returns an error and poisons the in-process writer; the on-disk state
//! is exactly what a power cut at that point would leave, and reopening
//! the corpus must recover from it.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xwq_store::{atomic_write, fsync_dir, payload_checksum};

/// The log file name inside a corpus directory.
pub const WAL_FILE: &str = "MANIFEST.wal";

/// File magic: `XWQW`.
pub const WAL_MAGIC: [u8; 4] = *b"XWQW";

/// The log format version this code writes.
pub const WAL_VERSION: u32 = 1;

/// Bytes of the file-level header (magic + version).
pub const WAL_HEADER_LEN: usize = 8;

/// Per-record header: payload length (u32) + crc (u64).
const RECORD_HEADER_LEN: usize = 12;

/// Upper bound on a single record's payload. Document names and artifact
/// file names are short; anything past this in a length prefix is torn
/// bytes read as a length, not a real record.
const MAX_PAYLOAD: u32 = 1 << 20;

/// Errors from reading or writing the log.
#[derive(Debug)]
pub enum WalError {
    /// Reading, writing or syncing the log failed.
    Io(io::Error),
    /// The file exists but does not start with [`WAL_MAGIC`] — it is not a
    /// WAL, so recovery refuses to truncate or replay it.
    BadMagic,
    /// The log declares a version this code cannot replay.
    UnsupportedVersion(u32),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal: {e}"),
            WalError::BadMagic => write!(f, "wal: not a MANIFEST.wal file (bad magic)"),
            WalError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "wal: version {v} unsupported (this build replays {WAL_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One logged catalog mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// A new document: `file` is its committed artifact name, relative to
    /// the corpus directory.
    AddDoc {
        /// Corpus-wide document name.
        name: String,
        /// Artifact file name (generation-stamped, e.g. `a.g3.xwqi`).
        file: String,
        /// Node count (placement hint, mirrors the manifest column).
        nodes: u64,
    },
    /// An existing document re-pointed at a new artifact. The superseded
    /// artifact goes to epoch GC, not straight to `unlink`.
    ReplaceDoc {
        /// Corpus-wide document name.
        name: String,
        /// The *new* artifact file name.
        file: String,
        /// Node count of the new document.
        nodes: u64,
    },
    /// A document dropped from the catalog.
    RemoveDoc {
        /// Corpus-wide document name.
        name: String,
    },
    /// A checkpoint marker: the manifest on disk reflects everything up to
    /// here. Written as the sole record of a freshly reset log; its
    /// generation stamp carries the next generation to hand out, so
    /// generations stay monotonic across checkpoints.
    Checkpoint,
}

/// A generation-stamped log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic per-corpus generation of this mutation (for
    /// [`WalOp::Checkpoint`]: the next generation to hand out).
    pub gen: u64,
    /// The mutation.
    pub op: WalOp,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

impl WalRecord {
    /// Serializes this record (record header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64);
        let kind: u8 = match &self.op {
            WalOp::AddDoc { .. } => 1,
            WalOp::ReplaceDoc { .. } => 2,
            WalOp::RemoveDoc { .. } => 3,
            WalOp::Checkpoint => 4,
        };
        payload.push(kind);
        payload.extend_from_slice(&self.gen.to_le_bytes());
        match &self.op {
            WalOp::AddDoc { name, file, nodes } | WalOp::ReplaceDoc { name, file, nodes } => {
                put_str(&mut payload, name);
                put_str(&mut payload, file);
                payload.extend_from_slice(&nodes.to_le_bytes());
            }
            WalOp::RemoveDoc { name } => put_str(&mut payload, name),
            WalOp::Checkpoint => {}
        }
        let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload_checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes one payload (crc already verified). `None` means the
    /// payload is malformed — the scanner treats that as a torn record.
    fn decode(payload: &[u8]) -> Option<WalRecord> {
        struct Cur<'a>(&'a [u8]);
        impl<'a> Cur<'a> {
            fn take(&mut self, n: usize) -> Option<&'a [u8]> {
                let (head, tail) = self.0.split_at_checked(n)?;
                self.0 = tail;
                Some(head)
            }
            fn u64(&mut self) -> Option<u64> {
                Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
            }
            fn str(&mut self) -> Option<String> {
                let len = u32::from_le_bytes(self.take(4)?.try_into().ok()?) as usize;
                String::from_utf8(self.take(len)?.to_vec()).ok()
            }
        }
        let mut c = Cur(payload);
        let kind = *c.take(1)?.first()?;
        let gen = c.u64()?;
        let op = match kind {
            1 | 2 => {
                let name = c.str()?;
                let file = c.str()?;
                let nodes = c.u64()?;
                if kind == 1 {
                    WalOp::AddDoc { name, file, nodes }
                } else {
                    WalOp::ReplaceDoc { name, file, nodes }
                }
            }
            3 => WalOp::RemoveDoc { name: c.str()? },
            4 => WalOp::Checkpoint,
            _ => return None,
        };
        if !c.0.is_empty() {
            return None;
        }
        Some(WalRecord { gen, op })
    }
}

/// Why a scan stopped before the end of the file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Bytes dropped from the end of the log.
    pub dropped_bytes: u64,
    /// Human-readable cause (short header, short payload, bad checksum,
    /// malformed payload).
    pub reason: String,
}

/// The result of scanning a log image.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the well-formed prefix (file header included).
    /// Recovery truncates the file to this length when a tail was torn.
    pub valid_len: u64,
    /// Present when the scan dropped a tail.
    pub torn: Option<TornTail>,
}

/// Scans a log image, collecting intact records and locating the first
/// torn byte. Never fails on a damaged *tail* — that is the normal crash
/// case — but refuses files that are not WALs at all.
pub fn scan(bytes: &[u8]) -> Result<WalScan, WalError> {
    let mut out = WalScan::default();
    if bytes.len() < WAL_HEADER_LEN {
        // A file this short cannot even name itself; treat the whole file
        // as a torn creation and let recovery truncate it away.
        out.torn = Some(TornTail {
            dropped_bytes: bytes.len() as u64,
            reason: "file shorter than the WAL header".to_string(),
        });
        return Ok(out);
    }
    if bytes[..4] != WAL_MAGIC {
        return Err(WalError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != WAL_VERSION {
        return Err(WalError::UnsupportedVersion(version));
    }
    let mut pos = WAL_HEADER_LEN;
    out.valid_len = pos as u64;
    let torn = |pos: usize, reason: &str| TornTail {
        dropped_bytes: (bytes.len() - pos) as u64,
        reason: reason.to_string(),
    };
    while pos < bytes.len() {
        if bytes.len() - pos < RECORD_HEADER_LEN {
            out.torn = Some(torn(pos, "short record header"));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        if len > MAX_PAYLOAD {
            out.torn = Some(torn(pos, "implausible payload length"));
            break;
        }
        let crc = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        let start = pos + RECORD_HEADER_LEN;
        let end = start + len as usize;
        if end > bytes.len() {
            out.torn = Some(torn(pos, "short payload"));
            break;
        }
        let payload = &bytes[start..end];
        if payload_checksum(payload) != crc {
            out.torn = Some(torn(pos, "payload checksum mismatch"));
            break;
        }
        let Some(record) = WalRecord::decode(payload) else {
            out.torn = Some(torn(pos, "malformed payload"));
            break;
        };
        out.records.push(record);
        pos = end;
        out.valid_len = pos as u64;
    }
    Ok(out)
}

/// Where a [`FaultPlan`] kills the commit path. Test/CI-only: installing
/// one makes exactly one class of I/O fail the way a power cut would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailPoint {
    /// The log stops accepting bytes after `n` total: a write straddling
    /// the mark is cut short (a genuinely torn record lands on disk) and
    /// the commit errors. `WalWriteAt(0)` fails before any byte.
    WalWriteAt(u64),
    /// `sync_data` on the log fails after the bytes are written.
    WalSync,
    /// `sync_data` on the staged artifact fails (before the WAL record is
    /// ever written — the cleanest abort point).
    StageSync,
    /// The corpus-directory fsync at the end of a commit fails.
    DirSync,
}

impl std::str::FromStr for FailPoint {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(n) = s.strip_prefix("write:") {
            return n
                .parse()
                .map(FailPoint::WalWriteAt)
                .map_err(|_| format!("bad byte count in fail point {s:?}"));
        }
        match s {
            "sync" => Ok(FailPoint::WalSync),
            "stage-sync" => Ok(FailPoint::StageSync),
            "dir-sync" => Ok(FailPoint::DirSync),
            other => Err(format!(
                "unknown fail point {other:?} (expected write:<n>|sync|stage-sync|dir-sync)"
            )),
        }
    }
}

/// A fault plan shared across the commit path's I/O points (the trait
/// object writer plus the staging and directory fsyncs).
#[derive(Debug)]
pub struct FaultPlan {
    point: FailPoint,
    /// Bytes already allowed into the log under this plan (so
    /// [`FailPoint::WalWriteAt`] counts across appends of one op).
    wal_written: AtomicU64,
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

impl FaultPlan {
    /// A plan that fails at `point`.
    pub fn new(point: FailPoint) -> Arc<Self> {
        Arc::new(Self {
            point,
            wal_written: AtomicU64::new(0),
        })
    }

    /// For [`FailPoint::WalWriteAt`]: bytes of the *current* write allowed
    /// before the cut, or `None` when the write passes whole.
    fn partial_wal_write(&self, len: u64) -> Option<u64> {
        match self.point {
            FailPoint::WalWriteAt(n) => {
                let written = self.wal_written.load(Ordering::Relaxed);
                if written + len <= n {
                    None
                } else {
                    Some(n.saturating_sub(written))
                }
            }
            _ => None,
        }
    }

    fn wal_sync_fails(&self) -> bool {
        self.point == FailPoint::WalSync
    }

    /// The staged-artifact sync point, checked after the staged write:
    /// `Err` under [`FailPoint::StageSync`], standing in for a failed
    /// `sync_data`.
    pub fn check_stage_sync(&self) -> io::Result<()> {
        if self.point == FailPoint::StageSync {
            return Err(injected("staged artifact sync_data failed"));
        }
        Ok(())
    }

    fn dir_sync_fails(&self) -> bool {
        self.point == FailPoint::DirSync
    }
}

/// The appender's file abstraction: real file or fault-injected wrapper.
trait WalFile: Send {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    fn sync_data(&mut self) -> io::Result<()>;
}

struct RealWalFile(File);

impl WalFile for RealWalFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

struct FaultWalFile {
    file: File,
    plan: Arc<FaultPlan>,
}

impl WalFile for FaultWalFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if let Some(short) = self.plan.partial_wal_write(buf.len() as u64) {
            // Land exactly `short` bytes (and make them visible like a
            // crashed page-cache flush would), then report the cut.
            self.file.write_all(&buf[..short as usize])?;
            let _ = self.file.sync_data();
            self.plan.wal_written.fetch_add(short, Ordering::Relaxed);
            return Err(injected("wal write cut short"));
        }
        self.plan
            .wal_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.file.write_all(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        if self.plan.wal_sync_fails() {
            return Err(injected("wal sync_data failed"));
        }
        self.file.sync_data()
    }
}

/// The single-writer log appender. Commit discipline: append the encoded
/// record, `sync_data` the log, fsync the corpus directory — only then is
/// the mutation durable.
pub struct WalAppender {
    file: Box<dyn WalFile>,
    dir: PathBuf,
    plan: Option<Arc<FaultPlan>>,
}

impl fmt::Debug for WalAppender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalAppender")
            .field("dir", &self.dir)
            .field("faulted", &self.plan.is_some())
            .finish()
    }
}

fn boxed(file: File, plan: Option<&Arc<FaultPlan>>) -> Box<dyn WalFile> {
    match plan {
        Some(plan) => Box::new(FaultWalFile {
            file,
            plan: Arc::clone(plan),
        }),
        None => Box::new(RealWalFile(file)),
    }
}

impl WalAppender {
    /// Opens `dir/MANIFEST.wal` for appending, creating it (with a durable
    /// header) if missing. The file must already have been scanned and, if
    /// torn, truncated — the appender trusts it ends on a record boundary.
    pub fn open(dir: &Path, plan: Option<&Arc<FaultPlan>>) -> Result<Self, WalError> {
        let path = dir.join(WAL_FILE);
        let existed = path.exists();
        let mut file = OpenOptions::new().append(true).create(true).open(&path)?;
        if !existed || file.metadata()?.len() == 0 {
            file.write_all(&WAL_MAGIC)?;
            file.write_all(&WAL_VERSION.to_le_bytes())?;
            file.sync_data()?;
            fsync_dir(dir)?;
        }
        Ok(Self {
            file: boxed(file, plan),
            dir: dir.to_path_buf(),
            plan: plan.cloned(),
        })
    }

    /// Appends and durably commits one record. On `Err` the log may hold a
    /// torn tail (exactly what a power cut leaves); the caller must stop
    /// using this appender and let the next open recover.
    pub fn commit(&mut self, record: &WalRecord) -> io::Result<()> {
        self.file.write_all(&record.encode())?;
        self.file.sync_data()?;
        if self.plan.as_ref().is_some_and(|p| p.dir_sync_fails()) {
            return Err(injected("directory fsync failed"));
        }
        fsync_dir(&self.dir)
    }
}

/// Atomically resets `dir/MANIFEST.wal` to a fresh log holding a single
/// [`WalOp::Checkpoint`] record stamped `next_gen` — the checkpoint path.
/// Stage-write + rename, with file and directory fsyncs, so the swap can
/// never tear: a crash leaves either the old log or the new one.
pub fn reset(dir: &Path, next_gen: u64) -> Result<(), WalError> {
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(&WAL_MAGIC);
    bytes.extend_from_slice(&WAL_VERSION.to_le_bytes());
    bytes.extend_from_slice(
        &WalRecord {
            gen: next_gen,
            op: WalOp::Checkpoint,
        }
        .encode(),
    );
    atomic_write(dir, WAL_FILE, &bytes)?;
    Ok(())
}

/// Reads and scans `dir/MANIFEST.wal`; when the tail is torn, truncates
/// the file back to its well-formed prefix (durably) so the appender can
/// continue from a clean boundary. A missing log is an empty scan.
pub fn recover(dir: &Path) -> Result<WalScan, WalError> {
    let path = dir.join(WAL_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(e.into()),
    }
    let scan = scan(&bytes)?;
    if scan.torn.is_some() {
        let f = OpenOptions::new().write(true).open(&path)?;
        f.set_len(scan.valid_len)?;
        f.sync_data()?;
        fsync_dir(dir)?;
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(gen: u64, op: WalOp) -> WalRecord {
        WalRecord { gen, op }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            rec(
                1,
                WalOp::AddDoc {
                    name: "alpha".into(),
                    file: "alpha.g1.xwqi".into(),
                    nodes: 42,
                },
            ),
            rec(
                2,
                WalOp::ReplaceDoc {
                    name: "alpha".into(),
                    file: "alpha.g2.xwqi".into(),
                    nodes: 50,
                },
            ),
            rec(
                3,
                WalOp::RemoveDoc {
                    name: "alpha".into(),
                },
            ),
            rec(4, WalOp::Checkpoint),
        ]
    }

    fn image(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&WAL_VERSION.to_le_bytes());
        for r in records {
            bytes.extend_from_slice(&r.encode());
        }
        bytes
    }

    #[test]
    fn records_roundtrip_through_the_scanner() {
        let records = sample_records();
        let scan = scan(&image(&records)).unwrap();
        assert_eq!(scan.records, records);
        assert!(scan.torn.is_none());
        assert_eq!(scan.valid_len, image(&records).len() as u64);
    }

    #[test]
    fn every_byte_prefix_scans_to_a_record_boundary() {
        let records = sample_records();
        let bytes = image(&records);
        // Record end offsets: each cut must recover exactly the records
        // whose encoding fits entirely inside the prefix.
        let mut ends = vec![WAL_HEADER_LEN as u64];
        for r in &records {
            ends.push(ends.last().unwrap() + r.encode().len() as u64);
        }
        for cut in 0..=bytes.len() {
            let scan = scan(&bytes[..cut])
                .unwrap_or_else(|e| panic!("cut {cut}: scan must not fail on a pure prefix: {e}"));
            if cut < WAL_HEADER_LEN {
                // Torn before the file even named itself: nothing valid.
                assert!(scan.records.is_empty(), "cut {cut}");
                assert_eq!(scan.valid_len, 0, "cut {cut}");
                assert!(scan.torn.is_some(), "cut {cut}");
                continue;
            }
            let complete = ends.iter().filter(|&&e| e <= cut as u64).count() - 1;
            assert_eq!(scan.records.len(), complete, "cut {cut}");
            assert_eq!(scan.valid_len, ends[complete], "cut {cut}");
            assert_eq!(
                scan.torn.is_some(),
                (cut as u64) != ends[complete],
                "cut {cut}: torn iff the cut is mid-record"
            );
        }
    }

    #[test]
    fn non_wal_files_are_refused_not_truncated() {
        assert!(matches!(scan(b"XWQI....full"), Err(WalError::BadMagic)));
        let mut bytes = image(&[]);
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(scan(&bytes), Err(WalError::UnsupportedVersion(9))));
    }

    #[test]
    fn fail_point_tokens_parse() {
        assert_eq!("write:17".parse(), Ok(FailPoint::WalWriteAt(17)));
        assert_eq!("sync".parse(), Ok(FailPoint::WalSync));
        assert_eq!("stage-sync".parse(), Ok(FailPoint::StageSync));
        assert_eq!("dir-sync".parse(), Ok(FailPoint::DirSync));
        assert!("explode".parse::<FailPoint>().is_err());
    }
}
