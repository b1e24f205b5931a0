//! The `.xwqp` compiled-plan sidecar: persisted query programs so a
//! restart starts warm.
//!
//! A `.xwqp` file sits next to its `.xwqi` index and carries the bytecode
//! programs ([`xwq_core::Program`]) the serving layer compiled for that
//! index, with each program's execution history:
//!
//! ```text
//! ┌────────────────────────── header (32 bytes) ──────────────────────────┐
//! │ magic "XWQP" │ version u32 │ flags u32 │ reserved u32 │
//! │ payload_len u64 │ checksum u64 (over the payload bytes)               │
//! ├────────────────────────────── payload ────────────────────────────────┤
//! │ index_checksum u64 (the .xwqi header checksum this sidecar binds to)  │
//! │ entry count u32                                                       │
//! │ per entry: query string │ strategy token │ encoded Program blob       │
//! │            runs u64 │ total_visits u64                                │
//! └───────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! **Binding.** [`TreeIndex::identity`] is process-unique, so it cannot
//! name an index across restarts; the sidecar instead records the index
//! *file*'s payload checksum (read cheaply from its header via
//! [`peek_index_checksum`]). A sidecar whose recorded checksum does not
//! match the index it sits next to is stale — rebuilt index, swapped file
//! — and is silently ignored: the reader's contract is *warm when valid,
//! cold re-plan otherwise, never wrong results*. The same applies to any
//! header/checksum/structural failure, and each program additionally
//! revalidates against the live index at install time
//! ([`xwq_core::Engine::install_program`]).
//!
//! Writes go through [`crate::atomic_write`] (staged sibling, `sync_data`,
//! rename, directory fsync), so a crash mid-write cannot leave a torn
//! sidecar behind the real name — at worst the old or no sidecar
//! survives, both of which just mean a cold start.

use crate::format::FormatError;
use crate::wire::checksum;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use xwq_core::Strategy;

/// File magic: `XWQP`.
pub const PLANS_MAGIC: [u8; 4] = *b"XWQP";

/// The `.xwqp` format version, the only one the reader accepts. Older
/// sidecars are rejected as [`FormatError::UnsupportedVersion`], which
/// callers treat like any other invalid sidecar: a cold re-plan.
pub const PLANS_VERSION: u32 = 3;

/// Header size in bytes (same shape as the `.xwqi` header).
pub const PLANS_HEADER_LEN: usize = 32;

/// Longest accepted query/token string in an entry.
const STR_MAX: usize = 1 << 20;

/// Longest accepted encoded program blob.
const PROGRAM_MAX: usize = 1 << 24;

/// One persisted program: the query text it answers, the strategy slot it
/// fills, and the encoded [`xwq_core::Program`] (decoded and revalidated
/// by the engine at install time, never trusted blindly).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanEntry {
    /// The query string, exactly as compiled.
    pub query: String,
    /// The strategy whose program slot this entry warms.
    pub strategy: Strategy,
    /// `Program::encode()` bytes.
    pub program: Vec<u8>,
    /// How many times the program had executed when it was persisted.
    pub runs: u64,
    /// Cumulative visits those runs observed — with `runs`, the feedback a
    /// restarted server re-plans from instead of cold estimates (see
    /// [`xwq_core::Engine::install_program_with_history`]).
    pub total_visits: u64,
}

/// A full sidecar: the index binding and the programs themselves.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanSet {
    /// The `.xwqi` header checksum this sidecar was written for.
    pub index_checksum: u64,
    /// The persisted programs.
    pub entries: Vec<PlanEntry>,
}

impl PlanSet {
    /// An empty sidecar bound to `index_checksum`.
    pub fn new(index_checksum: u64) -> Self {
        Self {
            index_checksum,
            entries: Vec::new(),
        }
    }
}

/// The sidecar path for an index file: `<stem>.xwqp` next to it.
pub fn plans_sidecar_path(index_path: impl AsRef<Path>) -> PathBuf {
    index_path.as_ref().with_extension("xwqp")
}

/// Reads the payload checksum out of a `.xwqi` file's header — the value
/// a `.xwqp` sidecar binds to — without touching the payload.
pub fn peek_index_checksum(index_path: impl AsRef<Path>) -> Result<u64, FormatError> {
    let mut header = [0u8; crate::format::HEADER_LEN];
    let mut f = std::fs::File::open(index_path)?;
    f.read_exact(&mut header)
        .map_err(|_| FormatError::Truncated {
            need: crate::format::HEADER_LEN,
            have: 0,
        })?;
    if header[0..4] != crate::format::MAGIC {
        return Err(FormatError::BadMagic);
    }
    Ok(u64::from_le_bytes(
        header[24..32].try_into().expect("8 bytes"),
    ))
}

/// Serializes a plan set into `.xwqp` bytes.
pub fn serialize_plans(set: &PlanSet) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&set.index_checksum.to_le_bytes());
    p.extend_from_slice(&(set.entries.len() as u32).to_le_bytes());
    for e in &set.entries {
        put_bytes(&mut p, e.query.as_bytes());
        put_bytes(&mut p, e.strategy.token().as_bytes());
        put_bytes(&mut p, &e.program);
        p.extend_from_slice(&e.runs.to_le_bytes());
        p.extend_from_slice(&e.total_visits.to_le_bytes());
    }
    let mut out = Vec::with_capacity(PLANS_HEADER_LEN + p.len());
    out.extend_from_slice(&PLANS_MAGIC);
    out.extend_from_slice(&PLANS_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // flags
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
    out.extend_from_slice(&(p.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&p).to_le_bytes());
    out.extend_from_slice(&p);
    out
}

/// Deserializes and validates `.xwqp` bytes. Validation order matches the
/// index reader: length, magic, version, payload length, checksum, then
/// structure — corrupt input yields [`FormatError`], never a panic.
pub fn deserialize_plans(bytes: &[u8]) -> Result<PlanSet, FormatError> {
    if bytes.len() < PLANS_HEADER_LEN {
        return Err(FormatError::Truncated {
            need: PLANS_HEADER_LEN,
            have: bytes.len(),
        });
    }
    if bytes[0..4] != PLANS_MAGIC {
        return Err(FormatError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != PLANS_VERSION {
        return Err(FormatError::UnsupportedVersion(version));
    }
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let expect = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    let have = bytes.len() - PLANS_HEADER_LEN;
    let payload_len = usize::try_from(payload_len).map_err(|_| FormatError::Truncated {
        need: usize::MAX,
        have,
    })?;
    if have < payload_len {
        return Err(FormatError::Truncated {
            need: payload_len,
            have,
        });
    }
    if have > payload_len {
        return Err(FormatError::Corrupt(format!(
            "{} bytes after the declared payload",
            have - payload_len
        )));
    }
    let payload = &bytes[PLANS_HEADER_LEN..PLANS_HEADER_LEN + payload_len];
    let got = checksum(payload);
    if got != expect {
        return Err(FormatError::ChecksumMismatch { expect, got });
    }

    let mut r = Rd {
        buf: payload,
        pos: 0,
    };
    let index_checksum = r.u64()?;
    let count = r.u32()? as usize;
    // Each entry takes at least 12 bytes of length prefixes.
    if count > r.remaining() / 12 + 1 {
        return Err(FormatError::Corrupt("entry count exceeds payload".into()));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let query = r.string(STR_MAX)?;
        let token = r.string(64)?;
        let strategy = Strategy::from_str(&token)
            .map_err(|_| FormatError::Corrupt(format!("unknown strategy token {token:?}")))?;
        let program = r.bytes(PROGRAM_MAX)?.to_vec();
        entries.push(PlanEntry {
            query,
            strategy,
            program,
            runs: r.u64()?,
            total_visits: r.u64()?,
        });
    }
    if r.remaining() != 0 {
        return Err(FormatError::Corrupt(format!(
            "{} trailing payload bytes",
            r.remaining()
        )));
    }
    Ok(PlanSet {
        index_checksum,
        entries,
    })
}

/// Writes a sidecar durably and atomically (see [`crate::atomic_write`]).
pub fn write_plans_file_durable(path: impl AsRef<Path>, set: &PlanSet) -> Result<(), FormatError> {
    let path = path.as_ref();
    let name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "sidecar path has no UTF-8 file name",
        )
    })?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    crate::atomic_write(dir, name, &serialize_plans(set))?;
    Ok(())
}

/// Reads a sidecar file back. Any validation failure surfaces as an
/// error; callers treat every error as "cold start" (see module docs).
pub fn read_plans_file(path: impl AsRef<Path>) -> Result<PlanSet, FormatError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    deserialize_plans(&bytes)
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Minimal bounds-checked little-endian payload reader.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        if self.remaining() < n {
            return Err(FormatError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn bytes(&mut self, max: usize) -> Result<&'a [u8], FormatError> {
        let n = self.u32()? as usize;
        if n > max {
            return Err(FormatError::Corrupt(format!("blob length {n} exceeds cap")));
        }
        self.take(n)
    }

    fn string(&mut self, max: usize) -> Result<String, FormatError> {
        let b = self.bytes(max)?;
        std::str::from_utf8(b)
            .map(str::to_owned)
            .map_err(|_| FormatError::Corrupt("invalid UTF-8 string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PlanSet {
        PlanSet {
            index_checksum: 0xfeed_beef_dead_cafe,
            entries: vec![
                PlanEntry {
                    query: "//item[quantity]".into(),
                    strategy: Strategy::Auto,
                    program: vec![1, 2, 3, 4, 5],
                    runs: 12,
                    total_visits: 4800,
                },
                PlanEntry {
                    query: "/site//name".into(),
                    strategy: Strategy::Hybrid,
                    program: vec![9; 64],
                    runs: 0,
                    total_visits: 0,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let set = sample();
        let bytes = serialize_plans(&set);
        assert_eq!(deserialize_plans(&bytes).unwrap(), set);
    }

    #[test]
    fn roundtrip_empty() {
        let set = PlanSet::new(7);
        let bytes = serialize_plans(&set);
        assert_eq!(deserialize_plans(&bytes).unwrap(), set);
    }

    #[test]
    fn every_truncation_point_errors() {
        let bytes = serialize_plans(&sample());
        for cut in 0..bytes.len() {
            assert!(deserialize_plans(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_single_byte_corruption_errors() {
        let bytes = serialize_plans(&sample());
        for i in PLANS_HEADER_LEN..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x40;
            assert!(
                matches!(
                    deserialize_plans(&m),
                    Err(FormatError::ChecksumMismatch { .. })
                ),
                "flip at {i} slipped past the checksum"
            );
        }
    }

    /// Versions 1 and 2 (which carried planner cost constants) are
    /// rejected like any unknown version: callers re-plan cold.
    #[test]
    fn bad_magic_and_version_rejected() {
        let bytes = serialize_plans(&sample());
        let mut m = bytes.clone();
        m[0] = b'Y';
        assert!(matches!(deserialize_plans(&m), Err(FormatError::BadMagic)));
        for version in [1u32, 2, 99] {
            let mut m = bytes.clone();
            m[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(
                matches!(
                    deserialize_plans(&m),
                    Err(FormatError::UnsupportedVersion(v)) if v == version
                ),
                "version {version} accepted"
            );
        }
    }

    #[test]
    fn file_roundtrip_and_sidecar_path() {
        let dir = std::env::temp_dir().join(format!("xwqp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let index_path = dir.join("doc.xwqi");
        let sidecar = plans_sidecar_path(&index_path);
        assert_eq!(sidecar, dir.join("doc.xwqp"));
        let set = sample();
        write_plans_file_durable(&sidecar, &set).unwrap();
        assert_eq!(read_plans_file(&sidecar).unwrap(), set);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
