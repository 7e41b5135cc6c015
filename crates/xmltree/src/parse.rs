//! Builds an [`XmlTree`] from XML text.
//!
//! [`parse_document`] drives the one XML tokenizer,
//! [`XmlStreamReader`], into an [`XmlTreeBuilder`], so the tree path and the
//! streaming path accept the same documents and see the same text. The
//! subset: element tags (with attributes *skipped*), text content,
//! comments, processing instructions / XML declarations (skipped),
//! self-closing tags, and the five predefined entities. It does not support
//! namespaces, CDATA sections or DOCTYPE internal subsets.
//!
//! Text is attached at close: a text run followed by a child's open tag is
//! dropped, so an element keeps only the run just before its close tag.
//!
//! The rewriting and evaluation algorithms only need a node-labelled tree
//! with PCDATA leaves, so this subset is sufficient and keeps the substrate
//! dependency-free.

use crate::error::ParseError;
use crate::stream::{EventSource, XmlEvent, XmlStreamReader};
use crate::tree::{NodeId, XmlTree, XmlTreeBuilder};

/// Parses an XML document string into an [`XmlTree`]. Node ids are in
/// document (pre-)order.
///
/// ```
/// let tree = smoqe_xml::parse_document(
///     "<hospital><department><patient><pname>Alice</pname></patient></department></hospital>",
/// ).unwrap();
/// assert_eq!(tree.len(), 4);
/// assert_eq!(tree.label_name(tree.root()), "hospital");
/// ```
pub fn parse_document(input: &str) -> Result<XmlTree, ParseError> {
    let mut reader = XmlStreamReader::new(input.as_bytes());
    let mut builder = XmlTreeBuilder::new();
    let mut open: Vec<NodeId> = Vec::new();
    while let Some(event) = reader.next_event()? {
        match event {
            XmlEvent::Open(name) => {
                let node = match open.last() {
                    Some(&parent) => builder.child(parent, name),
                    None => builder.root(name),
                };
                open.push(node);
            }
            XmlEvent::Text(text) => {
                builder.set_text(*open.last().expect("text is inside an element"), text);
            }
            XmlEvent::Close => {
                open.pop();
            }
        }
    }
    Ok(builder.finish())
}

/// Replaces the five predefined XML entities by their characters.
pub(crate) fn unescape(s: &str) -> String {
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
    fn every_parse_error_has_a_fixed_variant_and_offset() {
        fn syntax(offset: usize, message: &str) -> ParseError {
            ParseError::Syntax {
                offset,
                message: message.to_owned(),
            }
        }
        fn mismatched(expected: &str, found: &str, offset: usize) -> ParseError {
            ParseError::MismatchedTag {
                expected: expected.to_owned(),
                found: found.to_owned(),
                offset,
            }
        }
        const NAME: &str = "expected an element name";
        for (xml, expected) in [
            // Input ends inside an element, a tag, an attribute or markup.
            ("<a><b>", ParseError::UnexpectedEof),
            ("<a", ParseError::UnexpectedEof),
            ("<a x=\"1", ParseError::UnexpectedEof),
            ("<a><!-- never closed", ParseError::UnexpectedEof),
            ("<a><?pi", ParseError::UnexpectedEof),
            ("<a><!DOCTYPE", ParseError::UnexpectedEof),
            // Close tags name the open element; the offset is the `<`.
            ("<a><b></a></b>", mismatched("b", "a", 6)),
            ("<a></b>", mismatched("a", "b", 3)),
            ("<a/></a>", syntax(4, "closing tag with no open element")),
            ("<a></a >", syntax(6, "expected '>' after closing tag name")),
            ("<a>x</a", syntax(7, "expected '>' after closing tag name")),
            // A tag without a name; the offset is just past `<` or `</`.
            ("<", syntax(1, NAME)),
            ("<a>< b/></a>", syntax(4, NAME)),
            ("<a></ a>", syntax(5, NAME)),
            ("<a></", syntax(5, NAME)),
            // No root element at all.
            ("", ParseError::EmptyDocument),
            ("   ", ParseError::EmptyDocument),
            ("<!-- only a comment -->", ParseError::EmptyDocument),
            ("<?xml version=\"1.0\"?>", ParseError::EmptyDocument),
            // After the root: a tag errs at its `<`, text at the end of its
            // first non-blank fragment.
            ("<a></a><b></b>", ParseError::TrailingContent(7)),
            ("<a/><b/>", ParseError::TrailingContent(4)),
            ("<a></a><", ParseError::TrailingContent(7)),
            ("<a/>junk", ParseError::TrailingContent(8)),
            ("<a>text</a>more", ParseError::TrailingContent(15)),
            ("<a></a>x<b/>", ParseError::TrailingContent(8)),
            ("<a/> x <!-- c -->", ParseError::TrailingContent(7)),
            ("<a/> <!-- c --> y", ParseError::TrailingContent(17)),
        ] {
            assert_eq!(parse_document(xml).unwrap_err(), expected, "on {xml:?}");
        }
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
