//! A minimal XML parser for the document subset used by the paper.
//!
//! Supports: element tags (with attributes *skipped*), text content,
//! comments, processing instructions / XML declarations (skipped),
//! self-closing tags, and the five predefined entities. It does not support
//! namespaces, CDATA sections, DOCTYPE internal subsets, or mixed content
//! (text is attached to the innermost enclosing element).
//!
//! The rewriting and evaluation algorithms only need a node-labelled tree
//! with PCDATA leaves, so this subset is sufficient and keeps the substrate
//! dependency-free (see DESIGN.md, substitution table).

use crate::error::ParseError;
use crate::tree::{NodeId, XmlTree, XmlTreeBuilder};

/// Parses an XML document string into an [`XmlTree`].
///
/// ```
/// let tree = smoqe_xml::parse_document(
///     "<hospital><department><patient><pname>Alice</pname></patient></department></hospital>",
/// ).unwrap();
/// assert_eq!(tree.len(), 4);
/// assert_eq!(tree.label_name(tree.root()), "hospital");
/// ```
pub fn parse_document(input: &str) -> Result<XmlTree, ParseError> {
    Parser::new(input).parse()
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    builder: XmlTreeBuilder,
    /// Stack of currently open elements.
    open: Vec<(NodeId, String)>,
    /// Pending text for the innermost open element.
    text_buf: String,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
            builder: XmlTreeBuilder::new(),
            open: Vec::new(),
            text_buf: String::new(),
        }
    }

    fn parse(mut self) -> Result<XmlTree, ParseError> {
        let mut root_seen = false;
        let mut root_closed = false;
        while self.pos < self.input.len() {
            if self.peek() == Some(b'<') {
                match self.input.get(self.pos + 1) {
                    Some(b'?') => self.skip_until("?>")?,
                    Some(b'!') => self.skip_markup_declaration()?,
                    Some(b'/') => {
                        self.close_tag()?;
                        if self.open.is_empty() {
                            root_closed = true;
                        }
                    }
                    _ => {
                        if root_closed {
                            return Err(ParseError::TrailingContent(self.pos));
                        }
                        self.open_tag(&mut root_seen)?;
                        if self.open.is_empty() {
                            // self-closing root
                            root_closed = true;
                        }
                    }
                }
            } else {
                self.text()?;
                if root_closed && !self.text_buf.trim().is_empty() {
                    return Err(ParseError::TrailingContent(self.pos));
                }
                if self.open.is_empty() {
                    self.text_buf.clear();
                }
            }
        }
        if !self.open.is_empty() {
            return Err(ParseError::UnexpectedEof);
        }
        if !root_seen {
            return Err(ParseError::EmptyDocument);
        }
        Ok(self.builder.finish())
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_until(&mut self, pat: &str) -> Result<(), ParseError> {
        let bytes = pat.as_bytes();
        let mut i = self.pos;
        while i + bytes.len() <= self.input.len() {
            if &self.input[i..i + bytes.len()] == bytes {
                self.pos = i + bytes.len();
                return Ok(());
            }
            i += 1;
        }
        Err(ParseError::UnexpectedEof)
    }

    fn skip_markup_declaration(&mut self) -> Result<(), ParseError> {
        // `<!-- ... -->` comment or `<!DOCTYPE ...>` (without internal subset).
        if self.input[self.pos..].starts_with(b"<!--") {
            self.skip_until("-->")
        } else {
            self.skip_until(">")
        }
    }

    fn read_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' || c == b':' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(ParseError::Syntax {
                offset: start,
                message: "expected an element name".to_owned(),
            });
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn open_tag(&mut self, root_seen: &mut bool) -> Result<(), ParseError> {
        self.flush_text();
        self.pos += 1; // consume '<'
        let name = self.read_name()?;
        // Skip attributes up to '>' or '/>'.
        let mut self_closing = false;
        loop {
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') if self.input.get(self.pos + 1) == Some(&b'>') => {
                    self.pos += 2;
                    self_closing = true;
                    break;
                }
                Some(b'"') | Some(b'\'') => {
                    let quote = self.peek().unwrap();
                    self.pos += 1;
                    while let Some(c) = self.peek() {
                        self.pos += 1;
                        if c == quote {
                            break;
                        }
                    }
                }
                Some(_) => self.pos += 1,
                None => return Err(ParseError::UnexpectedEof),
            }
        }
        let node = if let Some(&(parent, _)) = self.open.last() {
            self.builder.child(parent, &name)
        } else {
            if *root_seen {
                return Err(ParseError::TrailingContent(self.pos));
            }
            *root_seen = true;
            self.builder.root(&name)
        };
        if !self_closing {
            self.open.push((node, name));
        }
        Ok(())
    }

    fn close_tag(&mut self) -> Result<(), ParseError> {
        let offset = self.pos;
        self.pos += 2; // consume "</"
        let name = self.read_name()?;
        if self.peek() != Some(b'>') {
            return Err(ParseError::Syntax {
                offset: self.pos,
                message: "expected '>' after closing tag name".to_owned(),
            });
        }
        self.pos += 1;
        let (node, open_name) = self.open.pop().ok_or(ParseError::Syntax {
            offset,
            message: "closing tag with no open element".to_owned(),
        })?;
        if open_name != name {
            return Err(ParseError::MismatchedTag {
                expected: open_name,
                found: name,
                offset,
            });
        }
        let text = std::mem::take(&mut self.text_buf);
        let trimmed = text.trim();
        if !trimmed.is_empty() {
            self.builder.set_text(node, trimmed);
        }
        Ok(())
    }

    fn flush_text(&mut self) {
        // Text interleaved before a child element is attached to the parent
        // only if the parent ends up childless; for the paper's DTD normal
        // form (text only on leaf elements), simply clearing is correct.
        self.text_buf.clear();
    }

    fn text(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'<' {
                break;
            }
            self.pos += 1;
        }
        let raw = String::from_utf8_lossy(&self.input[start..self.pos]);
        self.text_buf.push_str(&unescape(&raw));
        Ok(())
    }
}

/// Replaces the five predefined XML entities by their characters.
pub(crate) fn unescape(s: &str) -> String {
    if !s.contains('&') {
        return s.to_owned();
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let (replacement, consumed) = if rest.starts_with("&lt;") {
            ('<', 4)
        } else if rest.starts_with("&gt;") {
            ('>', 4)
        } else if rest.starts_with("&amp;") {
            ('&', 5)
        } else if rest.starts_with("&quot;") {
            ('"', 6)
        } else if rest.starts_with("&apos;") {
            ('\'', 6)
        } else {
            ('&', 1)
        };
        out.push(replacement);
        rest = &rest[consumed..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_elements_and_text() {
        let t = parse_document(
            "<hospital><department><patient><pname>Alice</pname><visit><date>2007-01-01</date></visit></patient></department></hospital>",
        )
        .unwrap();
        assert_eq!(t.len(), 6);
        t.check_consistency().unwrap();
        let pname = t.node_ids().find(|&n| t.label_name(n) == "pname").unwrap();
        assert_eq!(t.text(pname), Some("Alice"));
    }

    #[test]
    fn skips_xml_declaration_and_comments() {
        let t = parse_document(
            "<?xml version=\"1.0\"?><!-- generated --><root><a/><!-- mid --><b>x</b></root>",
        )
        .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.children(t.root()).len(), 2);
    }

    #[test]
    fn self_closing_tags() {
        let t = parse_document("<r><empty/><empty/></r>").unwrap();
        assert_eq!(t.children(t.root()).len(), 2);
        for &c in t.children(t.root()) {
            assert!(t.children(c).is_empty());
            assert_eq!(t.text(c), None);
        }
    }

    #[test]
    fn attributes_are_skipped() {
        let t = parse_document("<r id=\"1\" lang='en'><a key=\"v>alue\">t</a></r>").unwrap();
        assert_eq!(t.len(), 2);
        let a = t.children(t.root())[0];
        assert_eq!(t.text(a), Some("t"));
    }

    #[test]
    fn entities_are_unescaped() {
        let t = parse_document("<r><d>heart &amp; lung &lt;disease&gt;</d></r>").unwrap();
        let d = t.children(t.root())[0];
        assert_eq!(t.text(d), Some("heart & lung <disease>"));
    }

    #[test]
    fn mismatched_tag_is_an_error() {
        let err = parse_document("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, ParseError::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_element_is_an_error() {
        assert_eq!(
            parse_document("<a><b>").unwrap_err(),
            ParseError::UnexpectedEof
        );
    }

    #[test]
    fn empty_document_is_an_error() {
        assert_eq!(
            parse_document("   ").unwrap_err(),
            ParseError::EmptyDocument
        );
        assert_eq!(
            parse_document("<!-- only a comment -->").unwrap_err(),
            ParseError::EmptyDocument
        );
    }

    #[test]
    fn trailing_root_is_an_error() {
        assert!(matches!(
            parse_document("<a></a><b></b>").unwrap_err(),
            ParseError::TrailingContent(_)
        ));
    }

    #[test]
    fn whitespace_between_elements_is_ignored() {
        let t = parse_document("<r>\n  <a>1</a>\n  <b>2</b>\n</r>").unwrap();
        assert_eq!(t.children(t.root()).len(), 2);
    }

    #[test]
    fn unescape_handles_all_entities() {
        assert_eq!(unescape("&lt;&gt;&amp;&quot;&apos;"), "<>&\"'");
        assert_eq!(unescape("no entities"), "no entities");
        assert_eq!(unescape("lone & ampersand"), "lone & ampersand");
    }
}
