//! Typed archive errors.
//!
//! The store's contract is *fail loudly, never load a half-world*: every
//! error names the path or segment it came from, and parse-level errors
//! carry the absolute byte offset ([`bgp_types::codec::CodecError`] is
//! converted via [`StoreError::corrupt`]).

use std::fmt;
use std::path::PathBuf;

use bgp_types::codec::CodecError;

/// Which segment of an archive an error refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRef {
    /// Index in the manifest's segment table.
    pub index: usize,
    /// The segment's file name inside the archive directory.
    pub file: String,
}

impl fmt::Display for SegmentRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "segment {} ({})", self.index, self.file)
    }
}

/// Everything that can go wrong saving or loading an archive.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// An OS-level I/O failure on `path`.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// `path` is not an archive: the directory is missing, empty, or has
    /// no `MANIFEST`.
    NotAnArchive {
        /// The directory that was probed.
        path: PathBuf,
    },
    /// The manifest exists but does not start with the archive magic.
    BadMagic {
        /// The manifest path.
        path: PathBuf,
    },
    /// The manifest's format version is not one this build reads.
    Version {
        /// Version found on disk.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The manifest's own bytes are damaged (failed self-checksum or
    /// unparseable field).
    ManifestCorrupt {
        /// Byte offset of the failure inside the manifest.
        offset: usize,
        /// What was being read.
        what: String,
    },
    /// Saving would overwrite an existing archive and `force` was not
    /// given.
    AlreadyExists {
        /// The existing manifest's path.
        path: PathBuf,
    },
    /// A segment file is shorter (or longer) than the manifest records.
    Truncated {
        /// The segment.
        segment: SegmentRef,
        /// Bytes the manifest promises.
        expected: u64,
        /// Bytes actually on disk.
        found: u64,
    },
    /// A segment's bytes do not match the manifest's checksum.
    Checksum {
        /// The segment.
        segment: SegmentRef,
        /// Checksum the manifest promises.
        expected: u32,
        /// Checksum of the bytes on disk.
        found: u32,
    },
    /// A segment passed the checksum but its contents are structurally
    /// invalid (an impossible count, a dangling symbol, a short value…).
    Corrupt {
        /// The segment.
        segment: SegmentRef,
        /// Absolute byte offset of the failure inside the segment.
        offset: usize,
        /// What was being decoded.
        what: String,
    },
    /// The operation needs state this engine does not hold (e.g. saving
    /// from a tiered cold-start, which never materializes every
    /// snapshot).
    Unsupported {
        /// What was attempted and why it cannot work.
        what: String,
    },
}

impl StoreError {
    /// Wraps a codec-level failure as segment corruption, keeping its
    /// byte offset.
    pub fn corrupt(segment: SegmentRef, err: CodecError) -> StoreError {
        StoreError::Corrupt {
            segment,
            offset: err.offset(),
            what: err.to_string(),
        }
    }

    /// Wraps a semantic violation found at `offset`.
    pub fn invalid(segment: SegmentRef, offset: usize, what: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            segment,
            offset,
            what: what.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            StoreError::NotAnArchive { path } => {
                write!(f, "{} is not an rpi-store archive (no MANIFEST)", path.display())
            }
            StoreError::BadMagic { path } => {
                write!(f, "{} is not an rpi-store manifest (bad magic)", path.display())
            }
            StoreError::Version { found, supported } => write!(
                f,
                "unsupported archive format version {found} (this build reads version {supported} only)"
            ),
            StoreError::ManifestCorrupt { offset, what } => {
                write!(f, "manifest corrupt at byte {offset}: {what}")
            }
            StoreError::AlreadyExists { path } => write!(
                f,
                "{} already exists; refusing to overwrite",
                path.display()
            ),
            StoreError::Truncated {
                segment,
                expected,
                found,
            } => write!(
                f,
                "{segment} truncated: manifest records {expected} bytes, file has {found}"
            ),
            StoreError::Checksum {
                segment,
                expected,
                found,
            } => write!(
                f,
                "{segment} failed checksum: manifest records {expected:#010x}, bytes hash to {found:#010x}"
            ),
            StoreError::Corrupt {
                segment,
                offset,
                what,
            } => write!(f, "{segment} corrupt at byte {offset}: {what}"),
            StoreError::Unsupported { what } => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
