//! Error type for the XML substrate.

use std::fmt;

/// Result alias used throughout `xsq-xml`.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised while parsing or validating an XML stream.
///
/// Every variant carries the byte offset at which the problem was detected,
/// so streaming consumers can report a position inside an unbounded feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Underlying reader failed. The message of the original
    /// [`std::io::Error`] is preserved (the error itself is not, so that
    /// `Error` stays `Clone` + `Eq` for use in tests).
    Io { offset: u64, message: String },
    /// The input ended in the middle of a construct (tag, comment, CDATA…).
    UnexpectedEof { offset: u64, context: &'static str },
    /// A syntactic problem: malformed tag, bad attribute syntax, stray `<`…
    Syntax { offset: u64, message: String },
    /// A closing tag did not match the innermost open element.
    TagMismatch {
        offset: u64,
        expected: String,
        found: String,
    },
    /// A closing tag appeared with no element open.
    UnbalancedClose { offset: u64, tag: String },
    /// The document ended with elements still open.
    UnclosedElements { offset: u64, open: Vec<String> },
    /// An entity reference could not be decoded.
    BadEntity { offset: u64, entity: String },
    /// Content appeared outside the document element (other than
    /// whitespace, comments, and processing instructions).
    ContentOutsideRoot { offset: u64 },
    /// More than one top-level element.
    MultipleRoots { offset: u64, tag: String },
    /// The literal `]]>` in character data outside a CDATA section,
    /// which XML 1.0 §2.4 forbids; `offset` is its first `]`.
    CdataEndInContent { offset: u64 },
}

impl Error {
    /// Byte offset in the input at which the error was detected.
    pub fn offset(&self) -> u64 {
        match self {
            Error::Io { offset, .. }
            | Error::UnexpectedEof { offset, .. }
            | Error::Syntax { offset, .. }
            | Error::TagMismatch { offset, .. }
            | Error::UnbalancedClose { offset, .. }
            | Error::UnclosedElements { offset, .. }
            | Error::BadEntity { offset, .. }
            | Error::ContentOutsideRoot { offset }
            | Error::MultipleRoots { offset, .. }
            | Error::CdataEndInContent { offset } => *offset,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io { offset, message } => {
                write!(f, "I/O error at byte {offset}: {message}")
            }
            Error::UnexpectedEof { offset, context } => {
                write!(
                    f,
                    "unexpected end of input at byte {offset} while reading {context}"
                )
            }
            Error::Syntax { offset, message } => {
                write!(f, "XML syntax error at byte {offset}: {message}")
            }
            Error::TagMismatch {
                offset,
                expected,
                found,
            } => write!(
                f,
                "mismatched closing tag at byte {offset}: expected </{expected}>, found </{found}>"
            ),
            Error::UnbalancedClose { offset, tag } => {
                write!(
                    f,
                    "closing tag </{tag}> at byte {offset} with no open element"
                )
            }
            Error::UnclosedElements { offset, open } => write!(
                f,
                "document ended at byte {offset} with unclosed elements: {}",
                open.join(", ")
            ),
            Error::BadEntity { offset, entity } => {
                write!(f, "unknown or malformed entity &{entity}; at byte {offset}")
            }
            Error::ContentOutsideRoot { offset } => {
                write!(
                    f,
                    "character content outside the document element at byte {offset}"
                )
            }
            Error::MultipleRoots { offset, tag } => {
                write!(f, "second top-level element <{tag}> at byte {offset}")
            }
            Error::CdataEndInContent { offset } => {
                write!(
                    f,
                    "`]]>` in character data at byte {offset}: only a CDATA section may end with it"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

/// Translate a byte offset (as carried by [`Error`]) into a 1-based
/// (line, column) pair for human-facing diagnostics.
///
/// ```
/// let doc = b"<a>\n  <b></a>";
/// let err = xsq_xml::parse_to_events(doc).unwrap_err();
/// let (line, col) = xsq_xml::error::locate(doc, err.offset());
/// assert_eq!((line, col), (2, 6));
/// ```
pub fn locate(input: &[u8], offset: u64) -> (u64, u64) {
    let upto = (offset as usize).min(input.len());
    let mut line = 1;
    let mut col = 1;
    for &b in &input[..upto] {
        if b == b'\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

impl Error {
    pub(crate) fn io(offset: u64, err: std::io::Error) -> Self {
        Error::Io {
            offset,
            message: err.to_string(),
        }
    }

    pub(crate) fn syntax(offset: u64, message: impl Into<String>) -> Self {
        Error::Syntax {
            offset,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offset() {
        let e = Error::syntax(42, "bad tag");
        assert!(e.to_string().contains("42"));
        assert_eq!(e.offset(), 42);
    }

    #[test]
    fn locate_reports_line_and_column() {
        let input = b"ab\ncdef\ng";
        assert_eq!(locate(input, 0), (1, 1));
        assert_eq!(locate(input, 2), (1, 3));
        assert_eq!(locate(input, 3), (2, 1));
        assert_eq!(locate(input, 6), (2, 4));
        assert_eq!(locate(input, 8), (3, 1));
        // Out-of-range offsets clamp to the end.
        assert_eq!(locate(input, 999), (3, 2));
    }

    #[test]
    fn tag_mismatch_display_names_both_tags() {
        let e = Error::TagMismatch {
            offset: 7,
            expected: "a".into(),
            found: "b".into(),
        };
        let s = e.to_string();
        assert!(s.contains("</a>") && s.contains("</b>"));
    }
}
