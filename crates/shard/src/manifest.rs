//! The corpus manifest: a small text file (`MANIFEST.xwqc`) naming every
//! per-document `.xwqi` artifact a corpus directory holds.
//!
//! Keeping one `.xwqi` per document (instead of a multi-document
//! container) means each artifact stays independently mmap-able and
//! re-buildable, and adding or dropping a document never rewrites the
//! others. The manifest just pins the names: line-based, tab-separated,
//! dependency-free to parse.
//!
//! ```text
//! xwq-corpus 1
//! doc<TAB>name<TAB>file.xwqi<TAB>nodes
//! ```

use std::fmt;
use std::path::Path;

/// The manifest file name inside a corpus directory.
pub const MANIFEST_FILE: &str = "MANIFEST.xwqc";

/// The format version this code writes.
pub const MANIFEST_VERSION: u32 = 1;

/// Errors from reading or writing a manifest.
#[derive(Debug)]
pub enum ManifestError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file is not a manifest or is structurally broken.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The manifest declares a version this code cannot read.
    UnsupportedVersion(u32),
    /// A document name is unusable in the tab-separated format.
    BadName(String),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "manifest: {e}"),
            ManifestError::Malformed { line, reason } => {
                write!(f, "manifest line {line}: {reason}")
            }
            ManifestError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "manifest version {v} unsupported (this build reads {MANIFEST_VERSION})"
                )
            }
            ManifestError::BadName(n) => write!(
                f,
                "document name {n:?} contains tab/newline or is empty (unusable in a manifest)"
            ),
        }
    }
}

impl std::error::Error for ManifestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ManifestError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// One manifest row: a named document and its `.xwqi` artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestDoc {
    /// The corpus-wide document name.
    pub name: String,
    /// Artifact path, relative to the manifest's directory.
    pub file: String,
    /// Node count recorded at build time (placement hint; the authoritative
    /// count always comes from the loaded index).
    pub nodes: usize,
}

/// A parsed corpus manifest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    docs: Vec<ManifestDoc>,
}

/// True if `s` can appear as a tab-separated manifest field.
fn field_ok(s: &str) -> bool {
    !s.is_empty() && !s.contains(['\t', '\n', '\r'])
}

impl Manifest {
    /// An empty manifest.
    pub fn new() -> Self {
        Self::default()
    }

    /// The documents, in the order they were added (build order).
    pub fn docs(&self) -> &[ManifestDoc] {
        &self.docs
    }

    /// Appends a document row, validating the fields.
    pub fn push(&mut self, name: &str, file: &str, nodes: usize) -> Result<(), ManifestError> {
        if !field_ok(name) {
            return Err(ManifestError::BadName(name.to_string()));
        }
        if !field_ok(file) {
            return Err(ManifestError::BadName(file.to_string()));
        }
        self.docs.push(ManifestDoc {
            name: name.to_string(),
            file: file.to_string(),
            nodes,
        });
        Ok(())
    }

    /// Serializes to the manifest text format.
    pub fn to_text(&self) -> String {
        let mut out = format!("xwq-corpus {MANIFEST_VERSION}\n");
        for d in &self.docs {
            out.push_str(&format!("doc\t{}\t{}\t{}\n", d.name, d.file, d.nodes));
        }
        out
    }

    /// Parses the manifest text format.
    pub fn parse(text: &str) -> Result<Self, ManifestError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(ManifestError::Malformed {
            line: 1,
            reason: "empty file".to_string(),
        })?;
        let version = header
            .strip_prefix("xwq-corpus ")
            .and_then(|v| v.trim().parse::<u32>().ok())
            .ok_or(ManifestError::Malformed {
                line: 1,
                reason: format!("expected `xwq-corpus <version>`, got {header:?}"),
            })?;
        if version != MANIFEST_VERSION {
            return Err(ManifestError::UnsupportedVersion(version));
        }
        let mut manifest = Manifest::new();
        for (i, line) in lines {
            let line_no = i + 1;
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            match fields[..] {
                ["doc", name, file, nodes] => {
                    let nodes = nodes
                        .parse::<usize>()
                        .map_err(|_| ManifestError::Malformed {
                            line: line_no,
                            reason: format!("bad node count {nodes:?}"),
                        })?;
                    if manifest.docs.iter().any(|d| d.name == name) {
                        return Err(ManifestError::Malformed {
                            line: line_no,
                            reason: format!("duplicate document name {name:?}"),
                        });
                    }
                    manifest.push(name, file, nodes)?;
                }
                _ => {
                    return Err(ManifestError::Malformed {
                        line: line_no,
                        reason: format!("expected `doc<TAB>name<TAB>file<TAB>nodes`, got {line:?}"),
                    })
                }
            }
        }
        Ok(manifest)
    }

    /// Writes `MANIFEST.xwqc` into `dir`, atomically and durably: the text
    /// is staged to a temporary sibling, `sync_data`'d, renamed over the
    /// target, and the directory is fsync'd. A crash at any point leaves
    /// either the old manifest or the new one — never a torn mix — which
    /// is what lets the WAL checkpoint treat the manifest as a consistent
    /// baseline.
    pub fn write_dir(&self, dir: impl AsRef<Path>) -> Result<(), ManifestError> {
        xwq_store::atomic_write(dir.as_ref(), MANIFEST_FILE, self.to_text().as_bytes())
            .map_err(ManifestError::Io)
    }

    /// Reads `MANIFEST.xwqc` from `dir`.
    pub fn read_dir(dir: impl AsRef<Path>) -> Result<Self, ManifestError> {
        let path = dir.as_ref().join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).map_err(ManifestError::Io)?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_text() {
        let mut m = Manifest::new();
        m.push("auctions", "auctions.xwqi", 1234).unwrap();
        m.push("people", "sub/people.xwqi", 9).unwrap();
        let re = Manifest::parse(&m.to_text()).unwrap();
        assert_eq!(re, m);
        assert_eq!(re.docs()[1].file, "sub/people.xwqi");
    }

    #[test]
    fn rejects_broken_input() {
        assert!(matches!(
            Manifest::parse(""),
            Err(ManifestError::Malformed { line: 1, .. })
        ));
        assert!(matches!(
            Manifest::parse("xwq-corpus 99\n"),
            Err(ManifestError::UnsupportedVersion(99))
        ));
        assert!(Manifest::parse("xwq-corpus 1\ndoc\tonly-two-fields\t1\n").is_err());
        assert!(Manifest::parse("xwq-corpus 1\ndoc\ta\ta.xwqi\tnot-a-number\n").is_err());
        assert!(
            Manifest::parse("xwq-corpus 1\ndoc\ta\ta.xwqi\t1\ndoc\ta\tb.xwqi\t2\n").is_err(),
            "duplicate names must be rejected at parse time"
        );
        let mut m = Manifest::new();
        assert!(m.push("tab\tname", "f.xwqi", 1).is_err());
        assert!(m.push("", "f.xwqi", 1).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let m = Manifest::parse("xwq-corpus 1\n# a comment\n\ndoc\td\td.xwqi\t5\n").unwrap();
        assert_eq!(m.docs().len(), 1);
        assert_eq!(m.docs()[0].nodes, 5);
    }
}
