//! Versioned, checksummed snapshot files.
//!
//! A snapshot file is one header line followed by a JSON body:
//!
//! ```text
//! DTNSNAP v5 <fnv128-hex-of-body>\n
//! { ... }
//! ```
//!
//! The header names the format version and carries a 128-bit FNV-1a digest
//! of the body, so truncation, bit rot, and version drift are all detected
//! *before* the body is parsed — a damaged snapshot is reported as a typed
//! [`SnapshotError`], never a panic or a silently wrong world. Writes go
//! through a `.tmp` file renamed into place, so a crash mid-write can never
//! leave a half-written file at the target path.
//!
//! This module owns only the *container*; what goes inside is any
//! [`Serialize`]/[`Deserialize`] document — the kernel's
//! [`crate::kernel::WorldState`], a workload-level wrapper around it, or
//! a sweep cache entry. It also owns the one FNV-128 implementation
//! ([`Fnv128`]), which the sweep's cache keys and the golden trace
//! fingerprints share with the header digest.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// Magic token opening every snapshot header.
pub const MAGIC: &str = "DTNSNAP";

/// The format version this build writes and accepts. Bump it whenever the
/// body layout changes shape incompatibly, and record the change in
/// DESIGN.md §14 (CI enforces that pairing).
pub const FORMAT_VERSION: &str = "v5";

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// The file ends before the header line does — a crash mid-write or a
    /// truncated copy.
    Truncated {
        /// The file involved.
        path: PathBuf,
    },
    /// The header parses but the body's checksum does not match it.
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// The digest the header promised.
        expected: String,
        /// The digest the body actually hashes to.
        actual: String,
    },
    /// The header names a format version this build does not speak.
    VersionMismatch {
        /// The file involved.
        path: PathBuf,
        /// The version the file claims.
        found: String,
    },
    /// The file is not a snapshot at all (bad magic) or its body does not
    /// parse as the expected document.
    Malformed {
        /// The file involved.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// The snapshot parsed cleanly but does not belong to the world being
    /// restored (different scenario, seed, or node count).
    Mismatch {
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, source } => {
                write!(f, "snapshot I/O failed at {}: {source}", path.display())
            }
            SnapshotError::Truncated { path } => {
                write!(f, "snapshot {} is truncated", path.display())
            }
            SnapshotError::Corrupt {
                path,
                expected,
                actual,
            } => write!(
                f,
                "snapshot {} is corrupt: header digest {expected}, body hashes to {actual}",
                path.display()
            ),
            SnapshotError::VersionMismatch { path, found } => write!(
                f,
                "snapshot {} is format {found}, this build speaks {FORMAT_VERSION}",
                path.display()
            ),
            SnapshotError::Malformed { path, detail } => {
                write!(f, "snapshot {} is malformed: {detail}", path.display())
            }
            SnapshotError::Mismatch { detail } => {
                write!(f, "snapshot does not match this run: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Serializes `doc` and writes it to `path` atomically (tmp-then-rename).
///
/// # Errors
///
/// [`SnapshotError::Io`] when the write or rename fails, or
/// [`SnapshotError::Malformed`] when the document itself cannot be
/// serialized (non-finite floats).
pub fn save<T: Serialize>(doc: &T, path: &Path) -> Result<(), SnapshotError> {
    let body = serde_json::to_string(&doc.to_value()).map_err(|e| SnapshotError::Malformed {
        path: path.to_path_buf(),
        detail: format!("document does not serialize: {e}"),
    })?;
    let header = format!("{MAGIC} {FORMAT_VERSION} {}\n", fnv128_hex(body.as_bytes()));
    let mut contents = header;
    contents.push_str(&body);
    let tmp = tmp_path(path);
    let io_err = |source| SnapshotError::Io {
        path: path.to_path_buf(),
        source,
    };
    std::fs::write(&tmp, contents.as_bytes())
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(io_err)
}

/// Reads, verifies, and parses the snapshot at `path`.
///
/// Verification order: the header line must be complete
/// ([`SnapshotError::Truncated`]), open with [`MAGIC`]
/// ([`SnapshotError::Malformed`]), name [`FORMAT_VERSION`]
/// ([`SnapshotError::VersionMismatch`]), and its digest must match the
/// body ([`SnapshotError::Corrupt`]) — only then is the body parsed.
///
/// # Errors
///
/// Any [`SnapshotError`] variant except [`SnapshotError::Mismatch`]
/// (pairing the document with a world is the caller's job).
pub fn load<T: Deserialize>(path: &Path) -> Result<T, SnapshotError> {
    let raw = std::fs::read(path).map_err(|source| SnapshotError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let Some(newline) = raw.iter().position(|&b| b == b'\n') else {
        return Err(SnapshotError::Truncated {
            path: path.to_path_buf(),
        });
    };
    let (header, body) = (&raw[..newline], &raw[newline + 1..]);
    let malformed = |detail: String| SnapshotError::Malformed {
        path: path.to_path_buf(),
        detail,
    };
    let mut fields = header
        .split(u8::is_ascii_whitespace)
        .filter(|f| !f.is_empty());
    let magic = fields.next().unwrap_or_default();
    if magic != MAGIC.as_bytes() {
        return Err(malformed(format!(
            "header opens with `{}`, expected `{MAGIC}`",
            String::from_utf8_lossy(magic)
        )));
    }
    let version = fields
        .next()
        .ok_or_else(|| malformed("header is missing the version field".to_string()))?;
    if version != FORMAT_VERSION.as_bytes() {
        return Err(SnapshotError::VersionMismatch {
            path: path.to_path_buf(),
            found: String::from_utf8_lossy(version).into_owned(),
        });
    }
    let expected = fields
        .next()
        .ok_or_else(|| malformed("header is missing the checksum field".to_string()))?;
    let actual = fnv128_hex(body);
    if expected != actual.as_bytes() {
        return Err(SnapshotError::Corrupt {
            path: path.to_path_buf(),
            expected: String::from_utf8_lossy(expected).into_owned(),
            actual,
        });
    }
    let body =
        std::str::from_utf8(body).map_err(|e| malformed(format!("body is not UTF-8: {e}")))?;
    let value = serde_json::from_str(body)
        .map_err(|e| malformed(format!("body is not valid JSON: {e}")))?;
    T::from_value(&value).map_err(|e| malformed(format!("body does not parse: {e}")))
}

/// The sibling `.tmp` path used for atomic writes. Appends rather than
/// replaces the extension so `world.snap` and `world.json` cannot collide
/// on one tmp file.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Incremental 128-bit FNV-1a: stable across platforms and runs (unlike
/// `DefaultHasher`, which randomizes per process), and wide enough that
/// no realistic set of snapshots, cache cells or traces collides. Any
/// single changed byte always changes the digest: each step XORs one
/// byte and multiplies by an odd prime, both bijections on the state.
#[derive(Debug, Clone)]
pub struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    /// Feeds `bytes`; feeding a sequence of slices hashes their
    /// concatenation.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest of everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for Fnv128 {
    /// A hasher over the empty input.
    fn default() -> Self {
        Fnv128 {
            state: Self::OFFSET,
        }
    }
}

/// The FNV-128 digest of `bytes` as 32 lowercase hex digits: the form
/// snapshot headers carry.
#[must_use]
pub fn fnv128_hex(bytes: &[u8]) -> String {
    let mut hash = Fnv128::default();
    hash.update(bytes);
    format!("{:032x}", hash.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Doc {
        name: String,
        steps: u64,
        ratio: f64,
    }

    fn doc() -> Doc {
        Doc {
            name: "demo".to_string(),
            steps: 12_345,
            ratio: 0.625,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dtn-snap-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn round_trips_and_cleans_tmp() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("world.snap");
        save(&doc(), &path).expect("save");
        assert!(!tmp_path(&path).exists(), "tmp renamed away");
        let back: Doc = load(&path).expect("load");
        assert_eq!(back, doc());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_is_typed_not_a_panic() {
        let dir = tmpdir("trunc");
        let path = dir.join("world.snap");
        save(&doc(), &path).expect("save");
        let raw = std::fs::read_to_string(&path).unwrap();
        // Cut inside the header: no newline survives.
        std::fs::write(&path, &raw[..10]).unwrap();
        assert!(matches!(
            load::<Doc>(&path),
            Err(SnapshotError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_body_is_detected_by_checksum() {
        let dir = tmpdir("corrupt");
        let path = dir.join("world.snap");
        save(&doc(), &path).expect("save");
        let raw = std::fs::read_to_string(&path).unwrap();
        let flipped = raw.replace("12345", "12346");
        assert_ne!(raw, flipped, "the body actually changed");
        std::fs::write(&path, flipped).unwrap();
        let err = load::<Doc>(&path).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_version_is_rejected() {
        let dir = tmpdir("version");
        let path = dir.join("world.snap");
        save(&doc(), &path).expect("save");
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, raw.replacen(FORMAT_VERSION, "v999", 1)).unwrap();
        let err = load::<Doc>(&path).unwrap_err();
        match err {
            SnapshotError::VersionMismatch { found, .. } => assert_eq!(found, "v999"),
            other => panic!("expected VersionMismatch, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_snapshot_file_is_malformed() {
        let dir = tmpdir("magic");
        let path = dir.join("not-a-snap.txt");
        std::fs::write(&path, "hello world\nmore text\n").unwrap();
        assert!(matches!(
            load::<Doc>(&path),
            Err(SnapshotError::Malformed { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io() {
        let err = load::<Doc>(Path::new("/nonexistent/dir/world.snap")).unwrap_err();
        assert!(matches!(err, SnapshotError::Io { .. }), "{err}");
        assert!(std::error::Error::source(&err).is_some(), "the OS error");
    }

    #[test]
    fn fnv128_matches_reference_digests_and_streams() {
        assert_eq!(fnv128_hex(b""), "6c62272e07bb014262b821756295c58d");
        assert_eq!(fnv128_hex(b"a"), "d228cb696f1a8caf78912b704e4a8964");
        assert_eq!(fnv128_hex(b"foobar"), "343e1662793c64bf6f0d3597ba446f18");
        let mut streamed = Fnv128::default();
        for chunk in [&b"fo"[..], b"", b"ob", b"ar"] {
            streamed.update(chunk);
        }
        assert_eq!(format!("{:032x}", streamed.finish()), fnv128_hex(b"foobar"));
    }

    #[test]
    fn header_carries_magic_version_and_body_digest() {
        let dir = tmpdir("header");
        let path = dir.join("world.snap");
        save(&doc(), &path).expect("save");
        let raw = std::fs::read_to_string(&path).unwrap();
        let (header, body) = raw.split_once('\n').expect("a header line");
        assert_eq!(body, r#"{"name":"demo","steps":12345,"ratio":0.625}"#);
        assert_eq!(
            header,
            format!("DTNSNAP {FORMAT_VERSION} {}", fnv128_hex(body.as_bytes()))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A file from an older build is named as such, before its digest is
    /// checked: the older formats are refused, not reported as corrupt.
    #[test]
    fn older_formats_are_version_mismatches() {
        let dir = tmpdir("older");
        let path = dir.join("world.snap");
        for old in ["v2", "v3", "v4"] {
            std::fs::write(&path, format!("{MAGIC} {old} 0123\n{{}}")).unwrap();
            let err = load::<Doc>(&path).unwrap_err();
            assert!(
                matches!(&err, SnapshotError::VersionMismatch { found, .. } if found == old),
                "{old}: {err}"
            );
            assert!(err
                .to_string()
                .ends_with(&format!("is format {old}, this build speaks v5")));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incomplete_headers_and_bodies_are_malformed() {
        let dir = tmpdir("fields");
        let path = dir.join("world.snap");
        let detail = |contents: &str| {
            std::fs::write(&path, contents).unwrap();
            match load::<Doc>(&path) {
                Err(SnapshotError::Malformed { detail, .. }) => detail,
                other => panic!("expected Malformed for {contents:?}, got {other:?}"),
            }
        };
        assert_eq!(detail("DTNSNAP\n{}"), "header is missing the version field");
        assert_eq!(
            detail(&format!("DTNSNAP {FORMAT_VERSION}\n{{}}")),
            "header is missing the checksum field"
        );
        let with_body = |body: &str| {
            format!(
                "{MAGIC} {FORMAT_VERSION} {}\n{body}",
                fnv128_hex(body.as_bytes())
            )
        };
        assert!(detail(&with_body("{not json")).starts_with("body is not valid JSON"));
        assert_eq!(
            detail(&with_body(r#"{"name":"demo"}"#)),
            "body does not parse: missing field `steps` while deserializing Doc"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unserializable_document_writes_nothing() {
        let dir = tmpdir("nan");
        let path = dir.join("world.snap");
        let bad = Doc {
            ratio: f64::NAN,
            ..doc()
        };
        let err = save(&bad, &path).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
        assert!(!path.exists() && !tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_an_earlier_snapshot() {
        let dir = tmpdir("replace");
        let path = dir.join("world.snap");
        save(&doc(), &path).expect("first save");
        let later = Doc { steps: 99, ..doc() };
        save(&later, &path).expect("second save");
        assert_eq!(load::<Doc>(&path).expect("load"), later);
        assert_eq!(tmp_path(&path), dir.join("world.snap.tmp"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
