//! Crash-safe writes for the disk-cache artifacts.
//!
//! Cell records, traces and SimPoint sidecars are consumed by later runs
//! (and by merges of split runs' caches), so a process killed mid-write
//! must never leave a truncated file behind: a half-written `*.cell` only
//! fails its key check and is recomputed, but a torn write racing a
//! concurrent reader could feed it garbage. All cache writes therefore go
//! through [`atomic_write`]: the content lands in a uniquely named temp
//! file in the same directory and is `rename(2)`d into place, which is
//! atomic on POSIX filesystems.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide disambiguator so concurrent writers (worker threads of
/// one run) never share a temp file.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `contents` to `path` via temp-file + atomic rename.
///
/// Readers concurrently observing `path` see either the old content or
/// the new content, never a prefix. The temp file lives in `path`'s
/// directory (rename across filesystems is not atomic) and is removed if
/// the rename fails.
///
/// # Errors
///
/// Propagates the underlying I/O error; the temp file is cleaned up.
pub(crate) fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    atomic_write_bytes(path, contents.as_bytes())
}

/// Byte-level twin of [`atomic_write`] for binary artifacts (trace
/// files); same temp-file + rename discipline.
///
/// # Errors
///
/// Propagates the underlying I/O error; the temp file is cleaned up.
pub(crate) fn atomic_write_bytes(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".into());
    let tmp = dir.join(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_land_and_leave_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("strata-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record.txt");
        atomic_write(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        atomic_write(&path, "second overwrites atomically").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "second overwrites atomically"
        );
        // No temp litter: exactly the one target file remains.
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(entries, ["record.txt"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_errors_without_panicking() {
        let path = std::env::temp_dir()
            .join(format!("strata-atomic-missing-{}", std::process::id()))
            .join("no-such-dir")
            .join("f.txt");
        assert!(atomic_write(&path, "x").is_err());
    }

    #[test]
    fn concurrent_writers_never_tear() {
        let dir = std::env::temp_dir().join(format!("strata-atomic-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contended.txt");
        // Two full payloads a torn write would interleave.
        let payloads = ["A".repeat(64 * 1024), "B".repeat(64 * 1024)];
        std::thread::scope(|scope| {
            for payload in &payloads {
                scope.spawn(|| {
                    for _ in 0..50 {
                        atomic_write(&path, payload).unwrap();
                        let seen = std::fs::read_to_string(&path).unwrap();
                        assert!(
                            seen == payloads[0] || seen == payloads[1],
                            "torn read: {} bytes",
                            seen.len()
                        );
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
