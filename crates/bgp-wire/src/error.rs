//! Decode errors.

use std::error::Error;
use std::fmt;

use bgp_types::codec::CodecError;

/// Error produced when decoding BGP or MRT bytes fails.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// A read ran past the end of the input or of its enclosing record:
    /// [`CodecError::Truncated`] names the absolute offset of that read
    /// and how many more bytes it wanted.
    Codec(CodecError),
    /// The 16-byte BGP marker was not all-ones.
    BadMarker,
    /// A declared length field is impossible (too small / past the end).
    BadLength {
        /// Structure being decoded.
        what: &'static str,
        /// The offending declared length.
        got: usize,
    },
    /// Unknown or unsupported message / record / attribute type.
    Unsupported {
        /// Structure being decoded.
        what: &'static str,
        /// The offending type code.
        code: u32,
    },
    /// A field held an invalid value (e.g. ORIGIN=7, prefix length 37).
    BadValue {
        /// Field being decoded.
        what: &'static str,
        /// The offending value.
        got: u32,
    },
    /// A well-known mandatory attribute is missing from an UPDATE with NLRI.
    MissingAttr(&'static str),
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        WireError::Codec(e)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Codec(e) => e.fmt(f),
            WireError::BadMarker => write!(f, "BGP header marker is not all-ones"),
            WireError::BadLength { what, got } => {
                write!(f, "impossible length {got} while decoding {what}")
            }
            WireError::Unsupported { what, code } => {
                write!(f, "unsupported {what} type {code}")
            }
            WireError::BadValue { what, got } => {
                write!(f, "invalid value {got} for {what}")
            }
            WireError::MissingAttr(a) => write!(f, "mandatory attribute {a} missing"),
        }
    }
}

impl Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_context() {
        let e = WireError::from(CodecError::Truncated {
            offset: 512,
            wanted: 4,
        });
        assert!(e.to_string().contains("512"));
        assert!(e.to_string().contains('4'));
        let e = WireError::Unsupported {
            what: "MRT record",
            code: 99,
        };
        assert!(e.to_string().contains("99"));
    }
}
