//! Durable file writes, shared by every on-disk artifact: `.xwqi` indexes,
//! `.xwqp` plan sidecars, and the corpus manifest and write-ahead log.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Creates `path`, writes `bytes` and `sync_data`s them: the *content* is
/// durable when this returns, the name is not (that takes a directory
/// fsync after the rename or create — see [`atomic_write`]).
pub fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_data()
}

/// fsyncs a directory so a rename or file creation inside it is durable.
/// No-op on platforms where directories cannot be opened (non-unix).
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Durably replaces `dir/name`: stage the bytes under `.stage.<name>`,
/// `sync_data` them, rename over the target, fsync the directory. A crash
/// at any point leaves the old file or the new one, never a torn mix; a
/// failed write or rename removes the staged file.
pub fn atomic_write(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let staged = dir.join(format!(".stage.{name}"));
    let swapped =
        write_synced(&staged, bytes).and_then(|()| std::fs::rename(&staged, dir.join(name)));
    if let Err(e) = swapped {
        let _ = std::fs::remove_file(&staged);
        return Err(e);
    }
    fsync_dir(dir)
}
