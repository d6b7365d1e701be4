//! Sealed files: one checksum framing, one atomic writer and one torn-write
//! fault model for every file the pipeline writes and reads back (see
//! DESIGN.md §6g).
//!
//! * Line framing, `<body> #<crc:016x>\n` ([`seal_line`], [`unseal_line`]):
//!   the dataset checkpoint log and the training checkpoint.
//! * Footer framing, `<body><tag><crc:016x>\n` ([`seal_footer`],
//!   [`unseal_footer`]): the model file and the dataset CSV cache.
//!
//! The checksum is FNV-1a ([`crate::fnv1a`]), verified over the raw bytes
//! before anything is decoded. Crash model ([`inject_write`]): a write site
//! armed with `torn` writes half the bytes and fails, `short` all but the
//! last four, `io` nothing. Through [`write_atomic`] that prefix lands in a
//! temp file that is never renamed, so the target keeps its old contents.

use crate::{fnv1a, Action, FNV_OFFSET};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Why sealed bytes were refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// No final newline: a torn or short write lost the tail.
    Truncated,
    /// A line has no well-formed ` #<crc>` suffix.
    MissingChecksum,
    /// The last line is not a well-formed `<tag><crc>` footer.
    MissingFooter,
    /// The stored checksum does not match the bytes it covers.
    Mismatch {
        /// The checksum the file carries.
        stored: u64,
        /// The checksum of the bytes it covers.
        actual: u64,
    },
    /// The checksum matches but the body is not UTF-8.
    NotUtf8,
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::Truncated => f.write_str("truncated (no final newline)"),
            SealError::MissingChecksum => f.write_str("missing checksum"),
            SealError::MissingFooter => f.write_str("missing checksum footer"),
            SealError::Mismatch { stored, actual } => write!(
                f,
                "checksum mismatch (stored {stored:016x}, computed {actual:016x})"
            ),
            SealError::NotUtf8 => f.write_str("checksum matches but the contents are not UTF-8"),
        }
    }
}

impl std::error::Error for SealError {}

/// Exactly 16 lowercase hex digits, the only form the sealers write (an
/// uppercase digit is one bit flip away from a lowercase one).
fn parse_crc(field: &[u8]) -> Option<u64> {
    let lower_hex = |b: &u8| matches!(b, b'0'..=b'9' | b'a'..=b'f');
    if field.len() != 16 || !field.iter().all(lower_hex) {
        return None;
    }
    u64::from_str_radix(std::str::from_utf8(field).ok()?, 16).ok()
}

fn verified(body: &[u8], stored: u64) -> Result<&str, SealError> {
    let actual = fnv1a(FNV_OFFSET, body);
    if actual != stored {
        return Err(SealError::Mismatch { stored, actual });
    }
    std::str::from_utf8(body).map_err(|_| SealError::NotUtf8)
}

/// `body` as one sealed line, `<body> #<crc:016x>\n`.
pub fn seal_line(body: &str) -> String {
    format!("{body} #{:016x}\n", fnv1a(FNV_OFFSET, body.as_bytes()))
}

/// Verifies one sealed line (without its `\n`) and returns its body, or
/// fails with `MissingChecksum`, `Mismatch` or `NotUtf8`.
pub fn unseal_line(line: &[u8]) -> Result<&str, SealError> {
    let split = line
        .windows(2)
        .rposition(|w| w == b" #")
        .ok_or(SealError::MissingChecksum)?;
    let stored = parse_crc(&line[split + 2..]).ok_or(SealError::MissingChecksum)?;
    verified(&line[..split], stored)
}

/// `body` (empty or ending in a newline) followed by the footer line
/// `<tag><crc:016x>\n` checksumming it.
pub fn seal_footer(body: &str, tag: &str) -> String {
    format!("{body}{tag}{:016x}\n", fnv1a(FNV_OFFSET, body.as_bytes()))
}

/// Verifies a footer-sealed file and returns the body before its footer,
/// or fails with `Truncated`, `MissingFooter`, `Mismatch` or `NotUtf8`.
pub fn unseal_footer<'a>(bytes: &'a [u8], tag: &str) -> Result<&'a str, SealError> {
    let rest = bytes.strip_suffix(b"\n").ok_or(SealError::Truncated)?;
    let start = rest.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let stored = rest[start..]
        .strip_prefix(tag.as_bytes())
        .and_then(parse_crc)
        .ok_or(SealError::MissingFooter)?;
    verified(&rest[..start], stored)
}

/// Visits the write fault `site` before `bytes` are written: `Ok(())` when
/// nothing fires. A fired `torn` writes the first half of `bytes`, and
/// `short` all but the last four, to the writer `open` returns; `io`
/// writes nothing. Each then fails with an error naming the site, the
/// action and the bytes written.
pub fn inject_write<W: Write>(
    site: &str,
    bytes: &[u8],
    open: impl FnOnce() -> io::Result<W>,
) -> io::Result<()> {
    let Some(fault) = crate::inject(site) else {
        return Ok(());
    };
    let written = match fault.action {
        Action::Torn => bytes.len() / 2,
        Action::Short => bytes.len().saturating_sub(4),
        Action::Io => 0,
        _ => fault.unsupported(site),
    };
    if fault.action != Action::Io {
        let mut out = open()?;
        out.write_all(&bytes[..written])?;
        out.flush()?;
    }
    Err(io::Error::other(format!(
        "injected fault: {site} {} after {written} of {} bytes (occurrence {})",
        fault.action,
        bytes.len(),
        fault.occurrence
    )))
}

/// Replaces the file at `path` with `bytes`, or fails and leaves it as it
/// was: the bytes go to `<path>.tmp.<pid>` beside it, which is synced and
/// renamed over `path`, and then the directory is synced so the rename
/// survives a power loss. Creates missing parent directories. `site` is the
/// fault site ([`inject_write`]); a real write or rename error removes the
/// temp file. Only a failed final directory sync leaves the new file at
/// `path` and still reports an error.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8], site: &str) -> io::Result<()> {
    let path = path.as_ref();
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::create_dir_all(dir)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    inject_write(site, bytes, || File::create(&tmp))?;
    let result = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result.and_then(|()| File::open(dir)?.sync_all())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;
    use crate::{arm_str, disarm};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("faults_sealed_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn temp_of(path: &Path) -> PathBuf {
        PathBuf::from(format!("{}.tmp.{}", path.display(), std::process::id()))
    }

    #[test]
    fn lines_round_trip_and_refuse_damage() {
        let line = seal_line("key 3 ok 1,2");
        let inner = line.strip_suffix('\n').unwrap().as_bytes();
        assert_eq!(unseal_line(inner), Ok("key 3 ok 1,2"));
        assert_eq!(
            unseal_line(b"key 3 ok 1,2"),
            Err(SealError::MissingChecksum)
        );
        let mut flipped = inner.to_vec();
        flipped[0] ^= 0x01;
        assert!(matches!(
            unseal_line(&flipped),
            Err(SealError::Mismatch { .. })
        ));
        let upper = String::from_utf8(inner.to_vec()).unwrap().to_uppercase();
        assert!(unseal_line(upper.as_bytes()).is_err());
    }

    #[test]
    fn footers_round_trip_and_refuse_damage() {
        let sealed = seal_footer("a,b\n1,2\n", "#fnv ");
        assert_eq!(unseal_footer(sealed.as_bytes(), "#fnv "), Ok("a,b\n1,2\n"));
        assert_eq!(
            unseal_footer(sealed.as_bytes(), "checksum "),
            Err(SealError::MissingFooter)
        );
        assert_eq!(
            unseal_footer(&sealed.as_bytes()[..sealed.len() - 1], "#fnv "),
            Err(SealError::Truncated)
        );
        assert_eq!(
            unseal_footer(b"a,b\n", "#fnv "),
            Err(SealError::MissingFooter)
        );
        assert_eq!(unseal_footer(seal_footer("", "t").as_bytes(), "t"), Ok(""));
        // A flipped high bit is corruption, not a decoding failure.
        let mut bytes = sealed.into_bytes();
        bytes[1] ^= 0x80;
        assert!(matches!(
            unseal_footer(&bytes, "#fnv "),
            Err(SealError::Mismatch { .. })
        ));
    }

    #[test]
    fn messages_keep_the_matched_substrings() {
        for (err, needle) in [
            (SealError::Truncated, "truncated"),
            (SealError::MissingChecksum, "missing checksum"),
            (SealError::MissingFooter, "missing checksum footer"),
            (
                SealError::Mismatch {
                    stored: 1,
                    actual: 2,
                },
                "checksum mismatch",
            ),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path = tmp_dir("replace").join("nested").join("file.txt");
        write_atomic(&path, b"old\n", "test.write").unwrap();
        write_atomic(&path, b"new\n", "test.write").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new\n");
        assert!(!temp_of(&path).exists());
    }

    #[test]
    fn torn_and_short_writes_never_reach_the_path() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp_dir("torn");
        let path = dir.join("file.txt");
        for (action, prefix) in [("torn", &b"0123"[..]), ("short", b"0123")] {
            write_atomic(&path, b"old\n", "test.write").unwrap();
            arm_str(&format!("test.write:{action}"), None).unwrap();
            let err = write_atomic(&path, b"01234567", "test.write").unwrap_err();
            disarm();
            assert!(
                err.to_string().contains(&format!("test.write {action}")),
                "{err}"
            );
            assert_eq!(
                fs::read(&path).unwrap(),
                b"old\n",
                "{action}: old file intact"
            );
            assert_eq!(
                fs::read(temp_of(&path)).unwrap(),
                prefix,
                "{action}: partial temp"
            );
        }
        // With no old file, a torn write leaves no file at all.
        let fresh = dir.join("fresh.txt");
        arm_str("test.write:torn", None).unwrap();
        assert!(write_atomic(&fresh, b"0123", "test.write").is_err());
        disarm();
        assert!(!fresh.exists());
    }

    #[test]
    fn io_fault_writes_nothing_and_real_errors_clean_up() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp_dir("io");
        let path = dir.join("file.txt");
        arm_str("test.write:io", None).unwrap();
        let err = write_atomic(&path, b"data\n", "test.write").unwrap_err();
        disarm();
        assert!(err.to_string().contains("test.write io"), "{err}");
        assert!(!path.exists() && !temp_of(&path).exists());
        // A directory at the path makes the rename fail: the temp goes too.
        let blocked = dir.join("blocked");
        fs::create_dir_all(blocked.join("child")).unwrap();
        assert!(write_atomic(&blocked, b"data\n", "test.write").is_err());
        assert!(blocked.is_dir() && !temp_of(&blocked).exists());
    }
}
