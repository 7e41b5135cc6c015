//! Streaming (SAX-style) XML parse events.
//!
//! The arena model in [`crate::tree`] requires the whole document in memory
//! before evaluation can start. HyPE, however, answers a query in a *single
//! top-down pass* (paper §6) and therefore never needs random access — the
//! only state it keeps is per-depth. This module supplies the matching
//! substrate: a pull-based event reader that parses XML **incrementally from
//! any [`Read`] source without allocating an arena tree**, plus an adapter
//! that replays an already-built [`XmlTree`] as the same event sequence, so
//! a consumer written against [`EventSource`] runs unchanged on both.
//!
//! The event vocabulary is deliberately tiny:
//!
//! * [`XmlEvent::Open`] — an element started (`<name>` or `<name/>`),
//! * [`XmlEvent::Text`] — a trimmed, entity-unescaped, non-empty PCDATA run,
//! * [`XmlEvent::Close`] — the innermost open element ended.
//!
//! The reader accepts exactly the XML subset of [`crate::parse_document`]
//! (attributes skipped, comments/PIs skipped, five predefined entities, no
//! namespaces or CDATA) and performs the same well-formedness checks, so
//! `parse_document(s)` succeeds if and only if streaming `s` to exhaustion
//! succeeds. Text semantics also mirror the tree parser exactly: a run
//! interrupted by comments or processing instructions is accumulated into
//! one event, and text is **attached at close** — a run followed by a child
//! element's open tag is dropped (the tree parser's `flush_text`), so each
//! element yields at most one [`XmlEvent::Text`], the run immediately
//! preceding its close tag. Note the one sequencing difference between the
//! two sources: the reader emits that text just before `Close`, while
//! [`TreeEvents`] emits a node's stored text right after its `Open`;
//! consumers that track "the element's text" per open element (as
//! `smoqe_hype::stream` does) are agnostic to the position.

use std::io::Read;

use crate::error::ParseError;
use crate::parse::unescape;
use crate::tree::{NodeId, XmlTree};

/// One event of a streamed XML parse.
///
/// Borrowed from the event source's internal buffers; consume it before
/// pulling the next event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// An element opened: `<name>`, or the opening half of `<name/>`.
    Open(&'a str),
    /// A PCDATA run — entity-unescaped and trimmed; never empty.
    Text(&'a str),
    /// The innermost open element closed: `</name>`, or the closing half of
    /// a self-closing tag.
    Close,
}

/// A pull-based source of [`XmlEvent`]s.
///
/// Implemented by [`XmlStreamReader`] (incremental parse of raw XML) and
/// [`TreeEvents`] (replay of an existing [`XmlTree`]); `smoqe_hype`'s
/// streaming evaluator is written against this trait so both paths share
/// one consumer.
pub trait EventSource {
    /// Returns the next event, or `Ok(None)` once the document is complete.
    ///
    /// After `Ok(None)` or an error, further calls may return anything;
    /// sources are single-shot.
    fn next_event(&mut self) -> Result<Option<XmlEvent<'_>>, ParseError>;
}

// ---------------------------------------------------------------------------
// Incremental reader over any `Read`.
// ---------------------------------------------------------------------------

/// Size of one refill read from the underlying source.
const CHUNK: usize = 8 * 1024;
/// Consumed-prefix length above which the buffer is compacted.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// An incremental XML parser producing [`XmlEvent`]s from any [`Read`]
/// source — a file, a socket, stdin, or an in-memory slice — using **O(depth)
/// memory**: a bounded input buffer plus one tag name per open element. No
/// arena nodes are ever allocated (see [`crate::tree::node_allocations`]).
///
/// ```
/// use smoqe_xml::stream::{EventSource, XmlEvent, XmlStreamReader};
///
/// let xml = "<r><a>hi</a><b/></r>";
/// let mut reader = XmlStreamReader::new(xml.as_bytes());
/// let mut opens = 0;
/// while let Some(event) = reader.next_event().unwrap() {
///     if let XmlEvent::Open(_) = event {
///         opens += 1;
///     }
/// }
/// assert_eq!(opens, 3);
/// ```
#[derive(Debug)]
pub struct XmlStreamReader<R> {
    reader: R,
    buf: Vec<u8>,
    /// Next unconsumed byte in `buf`.
    pos: usize,
    /// Bytes discarded before `buf[0]` (for error offsets).
    discarded: usize,
    eof: bool,
    /// Names of the currently open elements (well-formedness checking).
    open: Vec<String>,
    root_seen: bool,
    root_closed: bool,
    /// A self-closing tag produced an `Open`; its `Close` is owed next.
    pending_close: bool,
    /// Backing storage for the name borrowed by [`XmlEvent::Open`].
    name_buf: String,
    /// Backing storage for the text borrowed by [`XmlEvent::Text`].
    text_buf: String,
    /// Raw byte accumulator for the current text *fragment* (up to the next
    /// markup of any kind).
    raw_text: Vec<u8>,
    /// Unescaped accumulator for the current text *run* (fragments joined
    /// across comments/PIs, each unescaped on its own — see
    /// [`Self::flush_fragment`]).
    text_acc: String,
}

impl<R: Read> XmlStreamReader<R> {
    /// Wraps `reader` in a streaming parser. No bytes are read until the
    /// first [`Self::next_event`] call.
    pub fn new(reader: R) -> Self {
        XmlStreamReader {
            reader,
            buf: Vec::new(),
            pos: 0,
            discarded: 0,
            eof: false,
            open: Vec::new(),
            root_seen: false,
            root_closed: false,
            pending_close: false,
            name_buf: String::new(),
            text_buf: String::new(),
            raw_text: Vec::new(),
            text_acc: String::new(),
        }
    }

    /// Current nesting depth: the number of open elements, including a
    /// self-closing element whose `Close` event is still owed.
    pub fn depth(&self) -> usize {
        self.open.len() + usize::from(self.pending_close)
    }

    /// Absolute byte offset of the next unconsumed input byte.
    fn offset(&self) -> usize {
        self.discarded + self.pos
    }

    /// Returns the byte `i` positions ahead of the cursor, refilling the
    /// buffer from the reader as needed. `None` means end of input.
    fn byte_at(&mut self, i: usize) -> Result<Option<u8>, ParseError> {
        while self.pos + i >= self.buf.len() && !self.eof {
            self.refill()?;
        }
        Ok(self.buf.get(self.pos + i).copied())
    }

    fn refill(&mut self) -> Result<(), ParseError> {
        if self.pos == self.buf.len() {
            self.discarded += self.pos;
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > COMPACT_THRESHOLD {
            self.discarded += self.pos;
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let mut chunk = [0u8; CHUNK];
        let n = self
            .reader
            .read(&mut chunk)
            .map_err(|e| ParseError::Io(e.to_string()))?;
        if n == 0 {
            self.eof = true;
        } else {
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(())
    }

    /// Consumes bytes until the last `pat.len()` consumed bytes equal `pat`.
    fn skip_until(&mut self, pat: &[u8]) -> Result<(), ParseError> {
        let mut window: Vec<u8> = Vec::with_capacity(pat.len());
        loop {
            match self.byte_at(0)? {
                None => return Err(ParseError::UnexpectedEof),
                Some(c) => {
                    self.pos += 1;
                    if window.len() == pat.len() {
                        window.remove(0);
                    }
                    window.push(c);
                    if window == pat {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Skips `<!-- ... -->` or `<!DOCTYPE ...>` (cursor on `<`). Like the
    /// tree parser, the search starts *at the opener*, so degenerate forms
    /// whose terminator overlaps it (`<!-->`, `<!--->`) are accepted.
    fn skip_markup_declaration(&mut self) -> Result<(), ParseError> {
        if self.byte_at(2)? == Some(b'-') && self.byte_at(3)? == Some(b'-') {
            self.skip_until(b"-->")
        } else {
            self.skip_until(b">")
        }
    }

    /// Reads an element name at the cursor into an owned string.
    fn read_name(&mut self) -> Result<String, ParseError> {
        let mut len = 0;
        while let Some(c) = self.byte_at(len)? {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' || c == b':' {
                len += 1;
            } else {
                break;
            }
        }
        if len == 0 {
            return Err(ParseError::Syntax {
                offset: self.offset(),
                message: "expected an element name".to_owned(),
            });
        }
        let name = String::from_utf8_lossy(&self.buf[self.pos..self.pos + len]).into_owned();
        self.pos += len;
        Ok(name)
    }

    /// Parses an open tag (cursor on `<`), filling `name_buf` and the open
    /// stack; schedules the matching `Close` for self-closing tags.
    fn parse_open_tag(&mut self) -> Result<(), ParseError> {
        if self.root_closed || (self.root_seen && self.open.is_empty()) {
            return Err(ParseError::TrailingContent(self.offset()));
        }
        self.pos += 1; // '<'
        let name = self.read_name()?;
        let mut self_closing = false;
        loop {
            match self.byte_at(0)? {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') if self.byte_at(1)? == Some(b'>') => {
                    self.pos += 2;
                    self_closing = true;
                    break;
                }
                Some(quote @ (b'"' | b'\'')) => {
                    self.pos += 1;
                    loop {
                        match self.byte_at(0)? {
                            Some(c) => {
                                self.pos += 1;
                                if c == quote {
                                    break;
                                }
                            }
                            None => return Err(ParseError::UnexpectedEof),
                        }
                    }
                }
                Some(_) => self.pos += 1,
                None => return Err(ParseError::UnexpectedEof),
            }
        }
        self.root_seen = true;
        if self_closing {
            self.pending_close = true;
            if self.open.is_empty() {
                self.root_closed = true;
            }
        } else {
            self.open.push(name.clone());
        }
        self.name_buf = name;
        Ok(())
    }

    /// Parses a closing tag (cursor on `<`, next byte `/`).
    fn parse_close_tag(&mut self) -> Result<(), ParseError> {
        let offset = self.offset();
        self.pos += 2; // "</"
        let name = self.read_name()?;
        if self.byte_at(0)? != Some(b'>') {
            return Err(ParseError::Syntax {
                offset: self.offset(),
                message: "expected '>' after closing tag name".to_owned(),
            });
        }
        self.pos += 1;
        let open_name = self.open.pop().ok_or(ParseError::Syntax {
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
        if self.open.is_empty() {
            self.root_closed = true;
        }
        Ok(())
    }

    /// Unescapes the raw fragment gathered so far and appends it to the
    /// run accumulator.
    ///
    /// The tree parser unescapes each fragment **separately** (its `text()`
    /// runs once per stretch between markup), so an entity reference split
    /// by a comment — `a&am<!-- -->p;b` — stays the literal `a&amp;b` rather
    /// than collapsing to `a&b`. Unescaping the joined raw bytes once would
    /// silently diverge from `parse_document` on exactly those inputs, which
    /// the reader-vs-tree property test now covers.
    fn flush_fragment(&mut self) {
        if self.raw_text.is_empty() {
            return;
        }
        let raw = String::from_utf8_lossy(&self.raw_text);
        self.text_acc.push_str(&unescape(&raw));
        self.raw_text.clear();
    }

    /// Accumulates the text run at the cursor (spanning comments and PIs)
    /// into `text_buf`. Returns `true` if a non-whitespace run was produced.
    fn read_text_run(&mut self) -> Result<bool, ParseError> {
        self.raw_text.clear();
        self.text_acc.clear();
        loop {
            if self.byte_at(0)?.is_none() {
                break;
            }
            // Bulk-copy everything buffered up to the next '<'.
            match self.buf[self.pos..].iter().position(|&b| b == b'<') {
                Some(k) => {
                    self.raw_text
                        .extend_from_slice(&self.buf[self.pos..self.pos + k]);
                    self.pos += k;
                    match self.byte_at(1)? {
                        // Comments and PIs end a fragment (but not the run):
                        // unescape what we have before skipping the markup,
                        // exactly like the tree parser's per-fragment text().
                        Some(b'?') => {
                            self.flush_fragment();
                            self.skip_until(b"?>")?;
                        }
                        Some(b'!') => {
                            self.flush_fragment();
                            self.skip_markup_declaration()?;
                        }
                        _ => break,
                    }
                }
                None => {
                    self.raw_text.extend_from_slice(&self.buf[self.pos..]);
                    self.pos = self.buf.len();
                }
            }
        }
        self.flush_fragment();
        if self.open.is_empty() {
            // Top-level text: ignored before the root (like the tree
            // parser), an error after it.
            if self.root_closed && !self.text_acc.trim().is_empty() {
                return Err(ParseError::TrailingContent(self.offset()));
            }
            return Ok(false);
        }
        // Tree-parser parity: text is attached at *close*. A run followed by
        // a child's open tag is dropped (the tree parser's flush_text); only
        // a run immediately preceding the enclosing close tag is emitted.
        if self.byte_at(0)? == Some(b'<') && self.byte_at(1)? != Some(b'/') {
            return Ok(false);
        }
        let trimmed = self.text_acc.trim();
        if trimmed.is_empty() {
            return Ok(false);
        }
        self.text_buf.clear();
        self.text_buf.push_str(trimmed);
        Ok(true)
    }
}

impl<R: Read> EventSource for XmlStreamReader<R> {
    fn next_event(&mut self) -> Result<Option<XmlEvent<'_>>, ParseError> {
        if self.pending_close {
            self.pending_close = false;
            return Ok(Some(XmlEvent::Close));
        }
        loop {
            match self.byte_at(0)? {
                None => {
                    if !self.open.is_empty() {
                        return Err(ParseError::UnexpectedEof);
                    }
                    if !self.root_seen {
                        return Err(ParseError::EmptyDocument);
                    }
                    return Ok(None);
                }
                Some(b'<') => match self.byte_at(1)? {
                    // The search starts at the opener (tree-parser parity):
                    // `<?>` is a complete processing instruction.
                    Some(b'?') => self.skip_until(b"?>")?,
                    Some(b'!') => self.skip_markup_declaration()?,
                    Some(b'/') => {
                        self.parse_close_tag()?;
                        return Ok(Some(XmlEvent::Close));
                    }
                    _ => {
                        self.parse_open_tag()?;
                        return Ok(Some(XmlEvent::Open(&self.name_buf)));
                    }
                },
                Some(_) => {
                    if self.read_text_run()? {
                        return Ok(Some(XmlEvent::Text(&self.text_buf)));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Replay of an existing tree.
// ---------------------------------------------------------------------------

/// Replays an [`XmlTree`] as the event sequence its serialization would
/// stream: for each node, `Open`, then `Text` (if the node carries PCDATA),
/// then the children's events in order, then `Close`.
///
/// This is the bridge that lets one [`EventSource`] consumer serve both the
/// in-memory and the streaming path; the integration suite's property test
/// pins `TreeEvents(parse(s))` ≡ `XmlStreamReader(s)` for serialized
/// documents.
///
/// ```
/// use smoqe_xml::stream::{EventSource, TreeEvents, XmlEvent};
/// use smoqe_xml::XmlTreeBuilder;
///
/// let mut b = XmlTreeBuilder::new();
/// let root = b.root("r");
/// b.child_with_text(root, "a", "hi");
/// let tree = b.finish();
///
/// let mut events = TreeEvents::new(&tree);
/// assert_eq!(events.next_event().unwrap(), Some(XmlEvent::Open("r")));
/// assert_eq!(events.next_event().unwrap(), Some(XmlEvent::Open("a")));
/// assert_eq!(events.next_event().unwrap(), Some(XmlEvent::Text("hi")));
/// assert_eq!(events.next_event().unwrap(), Some(XmlEvent::Close));
/// assert_eq!(events.next_event().unwrap(), Some(XmlEvent::Close));
/// assert_eq!(events.next_event().unwrap(), None);
/// ```
#[derive(Debug)]
pub struct TreeEvents<'t> {
    tree: &'t XmlTree,
    /// `(node, index of its next child to visit)` for every open element.
    stack: Vec<(NodeId, usize)>,
    started: bool,
    done: bool,
    /// The just-opened node's text is owed before its children.
    pending_text: bool,
}

impl<'t> TreeEvents<'t> {
    /// Creates a replay of `tree`, rooted at its root.
    pub fn new(tree: &'t XmlTree) -> Self {
        TreeEvents {
            tree,
            stack: Vec::new(),
            started: false,
            done: false,
            pending_text: false,
        }
    }
}

impl EventSource for TreeEvents<'_> {
    fn next_event(&mut self) -> Result<Option<XmlEvent<'_>>, ParseError> {
        if self.done {
            return Ok(None);
        }
        if !self.started {
            self.started = true;
            let root = self.tree.root();
            self.stack.push((root, 0));
            self.pending_text = self.tree.text(root).is_some();
            return Ok(Some(XmlEvent::Open(self.tree.label_name(root))));
        }
        if self.pending_text {
            self.pending_text = false;
            let (node, _) = *self
                .stack
                .last()
                .expect("pending text implies an open node");
            return Ok(Some(XmlEvent::Text(
                self.tree.text(node).expect("pending text was checked"),
            )));
        }
        let (node, next_child) = *self.stack.last().expect("not done implies an open node");
        let children = self.tree.children(node);
        if next_child < children.len() {
            self.stack.last_mut().expect("just read").1 += 1;
            let child = children[next_child];
            self.stack.push((child, 0));
            self.pending_text = self.tree.text(child).is_some();
            Ok(Some(XmlEvent::Open(self.tree.label_name(child))))
        } else {
            self.stack.pop();
            if self.stack.is_empty() {
                self.done = true;
            }
            Ok(Some(XmlEvent::Close))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;
    use crate::serialize::to_xml_string;
    use crate::tree::XmlTreeBuilder;

    /// Owned mirror of [`XmlEvent`] for collecting whole sequences.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Owned {
        Open(String),
        Text(String),
        Close,
    }

    fn collect(source: &mut impl EventSource) -> Result<Vec<Owned>, ParseError> {
        let mut out = Vec::new();
        while let Some(event) = source.next_event()? {
            out.push(match event {
                XmlEvent::Open(n) => Owned::Open(n.to_owned()),
                XmlEvent::Text(t) => Owned::Text(t.to_owned()),
                XmlEvent::Close => Owned::Close,
            });
        }
        Ok(out)
    }

    fn read_events(xml: &str) -> Result<Vec<Owned>, ParseError> {
        collect(&mut XmlStreamReader::new(xml.as_bytes()))
    }

    #[test]
    fn simple_document_streams_in_order() {
        let events = read_events("<r><a>hi</a><b/></r>").unwrap();
        assert_eq!(
            events,
            vec![
                Owned::Open("r".into()),
                Owned::Open("a".into()),
                Owned::Text("hi".into()),
                Owned::Close,
                Owned::Open("b".into()),
                Owned::Close,
                Owned::Close,
            ]
        );
    }

    #[test]
    fn declarations_comments_and_attributes_are_skipped() {
        let events = read_events(
            "<?xml version=\"1.0\"?><!-- head --><r id=\"1\"><a key=\"v>alue\">x<!-- mid -->y</a></r>",
        )
        .unwrap();
        assert_eq!(
            events,
            vec![
                Owned::Open("r".into()),
                Owned::Open("a".into()),
                Owned::Text("xy".into()),
                Owned::Close,
                Owned::Close,
            ]
        );
    }

    #[test]
    fn entities_are_unescaped_and_whitespace_trimmed() {
        let events = read_events("<r>\n  <d>heart &amp; lung</d>\n</r>").unwrap();
        assert_eq!(
            events,
            vec![
                Owned::Open("r".into()),
                Owned::Open("d".into()),
                Owned::Text("heart & lung".into()),
                Owned::Close,
                Owned::Close,
            ]
        );
    }

    #[test]
    fn errors_match_the_tree_parser() {
        assert!(matches!(
            read_events("<a><b></a></b>").unwrap_err(),
            ParseError::MismatchedTag { .. }
        ));
        assert_eq!(
            read_events("<a><b>").unwrap_err(),
            ParseError::UnexpectedEof
        );
        assert_eq!(read_events("   ").unwrap_err(), ParseError::EmptyDocument);
        assert_eq!(
            read_events("<!-- only a comment -->").unwrap_err(),
            ParseError::EmptyDocument
        );
        assert!(matches!(
            read_events("<a></a><b></b>").unwrap_err(),
            ParseError::TrailingContent(_)
        ));
        assert!(matches!(
            read_events("<a/>junk").unwrap_err(),
            ParseError::TrailingContent(_)
        ));
    }

    #[test]
    fn entities_split_by_comments_match_the_tree_parser() {
        // The tree parser unescapes per fragment, so a comment interrupting
        // `&amp;` leaves the literal characters `a&amp;b` — the reader must
        // not join the raw fragments first and unescape them to `a&b`.
        for (xml, expected) in [
            ("<r><a>a&am<!-- split -->p;b</a></r>", "a&amp;b"),
            ("<r><a>a&am<?pi?>p;b</a></r>", "a&amp;b"),
            ("<r><a>x&lt;<!-- c -->&gt;y</a></r>", "x<>y"),
            ("<r><a>&amp;<!-- c -->&amp;</a></r>", "&&"),
        ] {
            let tree = parse_document(xml).unwrap();
            let a = tree.children(tree.root())[0];
            assert_eq!(tree.text(a), Some(expected), "tree parser on {xml:?}");
            let events = read_events(xml).unwrap();
            assert!(
                events.contains(&Owned::Text(expected.into())),
                "stream reader diverged from tree parser on {xml:?}: {events:?}"
            );
        }
    }

    #[test]
    fn escaped_text_round_trips_through_serialize_parse_serialize() {
        for text in [
            "a&amp;b", // literal characters a & a m p ; b
            "a & b",   // lone ampersand
            "x < y > z",
            "\"quoted\" and 'apos'",
            "line1\nline2",
            "cr\r\nlf inside", // interior CR/LF must survive untouched
            "tab\tseparated",
            "]]> not special here",
        ] {
            let mut b = XmlTreeBuilder::new();
            let root = b.root("r");
            b.child_with_text(root, "a", text);
            let tree = b.finish();
            let xml = to_xml_string(&tree);
            let reparsed = parse_document(&xml).unwrap();
            let a = reparsed.children(reparsed.root())[0];
            assert_eq!(reparsed.text(a), Some(text), "parse drift on {text:?}");
            assert_eq!(to_xml_string(&reparsed), xml, "serialize drift on {text:?}");
            // And the stream reader agrees with the reparsed tree.
            let events = read_events(&xml).unwrap();
            assert!(
                events.contains(&Owned::Text(text.into())),
                "stream reader drift on {text:?}: {events:?}"
            );
        }
    }

    #[test]
    fn text_before_a_child_element_is_dropped_like_the_tree_parser() {
        // parse_document flushes text when a child opens; the reader must
        // not hand that text to consumers either, or streamed evaluation
        // would diverge from tree evaluation on mixed content.
        let events = read_events("<r><a>x<b/>y</a></r>").unwrap();
        assert_eq!(
            events,
            vec![
                Owned::Open("r".into()),
                Owned::Open("a".into()),
                Owned::Open("b".into()),
                Owned::Close,
                Owned::Text("y".into()),
                Owned::Close,
                Owned::Close,
            ]
        );
        // With no trailing run, the element ends up with no text at all.
        let events = read_events("<r><a>x<b/></a></r>").unwrap();
        assert!(
            !events.iter().any(|e| matches!(e, Owned::Text(_))),
            "flushed text must not surface: {events:?}"
        );
    }

    #[test]
    fn reader_accepts_exactly_what_parse_document_accepts() {
        for xml in [
            "<r/>",
            "<r>t</r>",
            "<r><a/><b>x</b></r>",
            "<?xml version=\"1.0\"?><r/>",
            "<a><b></a></b>",
            "<a><b>",
            "",
            "<a></a><b></b>",
            "<a>text</a>more",
            // Degenerate comment/PI forms whose terminators overlap their
            // openers — the tree parser accepts these.
            "<a><!--></a>",
            "<a><!---></a>",
            "<a><?></a>",
            "<a>t<!-->u</a>",
        ] {
            let tree = parse_document(xml);
            let stream = read_events(xml);
            assert_eq!(
                tree.is_ok(),
                stream.is_ok(),
                "parse ({:?}) and stream ({:?}) disagree on {xml:?}",
                tree.err(),
                stream.err()
            );
        }
    }

    #[test]
    fn tree_replay_matches_streaming_the_serialization() {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let dept = b.child(root, "department");
        b.child_with_text(dept, "name", "Cardiology & Oncology");
        let p = b.child(dept, "patient");
        b.child_with_text(p, "pname", "Alice");
        b.child(p, "visit");
        let tree = b.finish();

        let xml = to_xml_string(&tree);
        let from_text = read_events(&xml).unwrap();
        let from_tree = collect(&mut TreeEvents::new(&tree)).unwrap();
        assert_eq!(from_text, from_tree);
    }

    #[test]
    fn small_read_chunks_do_not_change_the_event_sequence() {
        /// A reader that hands out one byte at a time, exercising every
        /// buffer-refill path.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.0.split_first() {
                    Some((&b, rest)) => {
                        buf[0] = b;
                        self.0 = rest;
                        Ok(1)
                    }
                    None => Ok(0),
                }
            }
        }
        let xml = "<?xml version=\"1.0\"?><r a=\"1\"><x>alpha &lt;beta&gt;</x><!-- c --><y/></r>";
        let whole = read_events(xml).unwrap();
        let bytewise = collect(&mut XmlStreamReader::new(OneByte(xml.as_bytes()))).unwrap();
        assert_eq!(whole, bytewise);
    }

    #[test]
    fn depth_tracks_open_elements() {
        let mut reader = XmlStreamReader::new("<a><b><c/></b></a>".as_bytes());
        let mut max_depth = 0;
        while let Some(_event) = reader.next_event().unwrap() {
            max_depth = max_depth.max(reader.depth());
        }
        assert_eq!(max_depth, 3);
        assert_eq!(reader.depth(), 0);
    }

    #[test]
    fn io_errors_surface_as_parse_errors() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("wire cut"))
            }
        }
        let mut reader = XmlStreamReader::new(Broken);
        match reader.next_event() {
            Err(ParseError::Io(message)) => assert!(message.contains("wire cut")),
            other => panic!("expected an Io error, got {other:?}"),
        }
    }
}
