//! Error types for the XML substrate.

use std::fmt;

/// Errors raised while building or validating XML trees against a DTD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// A node id referred to a node that does not exist in the arena.
    InvalidNode(u32),
    /// The document root label does not match the DTD root type.
    RootMismatch {
        /// The label expected by the DTD.
        expected: String,
        /// The label actually found at the root.
        found: String,
    },
    /// An element's children do not conform to its DTD production.
    InvalidContent {
        /// The label of the offending element.
        element: String,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The DTD references an element type with no production.
    UndefinedElementType(String),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::InvalidNode(id) => write!(f, "invalid node id {id}"),
            XmlError::RootMismatch { expected, found } => {
                write!(
                    f,
                    "root element mismatch: expected <{expected}>, found <{found}>"
                )
            }
            XmlError::InvalidContent { element, reason } => {
                write!(f, "invalid content for <{element}>: {reason}")
            }
            XmlError::UndefinedElementType(name) => {
                write!(f, "element type <{name}> has no production in the DTD")
            }
        }
    }
}

impl std::error::Error for XmlError {}

/// Errors raised by the XML parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Input ended while an element was still open.
    UnexpectedEof,
    /// A closing tag did not match the open element.
    MismatchedTag {
        /// Tag that was open.
        expected: String,
        /// Closing tag encountered.
        found: String,
        /// Byte offset of the closing tag.
        offset: usize,
    },
    /// A syntactic error at the given byte offset.
    Syntax {
        /// Byte offset of the error.
        offset: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// The document contains no root element.
    EmptyDocument,
    /// Content was found after the root element closed.
    TrailingContent(usize),
    /// The underlying reader failed while streaming (message of the
    /// `std::io::Error`; stored as text so the error stays `Clone + Eq`).
    Io(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedEof => write!(f, "unexpected end of input"),
            ParseError::MismatchedTag {
                expected,
                found,
                offset,
            } => write!(
                f,
                "mismatched closing tag at offset {offset}: expected </{expected}>, found </{found}>"
            ),
            ParseError::Syntax { offset, message } => {
                write!(f, "syntax error at offset {offset}: {message}")
            }
            ParseError::EmptyDocument => write!(f, "document contains no root element"),
            ParseError::TrailingContent(offset) => {
                write!(f, "unexpected content after the root element at offset {offset}")
            }
            ParseError::Io(message) => write!(f, "read error while streaming: {message}"),
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = XmlError::RootMismatch {
            expected: "hospital".into(),
            found: "clinic".into(),
        };
        assert!(e.to_string().contains("hospital"));
        assert!(e.to_string().contains("clinic"));

        let p = ParseError::MismatchedTag {
            expected: "a".into(),
            found: "b".into(),
            offset: 17,
        };
        assert!(p.to_string().contains("17"));
        assert!(p.to_string().contains("</a>"));
    }

    #[test]
    fn errors_are_cloneable_and_comparable() {
        let e1 = XmlError::InvalidNode(3);
        let e2 = e1.clone();
        assert_eq!(e1, e2);
        let p1 = ParseError::UnexpectedEof;
        assert_eq!(p1.clone(), p1);
    }
}
