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
//! [`XmlStreamReader`] is the crate's one XML tokenizer:
//! [`crate::parse_document`] drives it into a tree builder, so the tree and
//! the streaming path accept the same documents, fail with the same errors
//! and see the same text. It skips attributes, comments and processing
//! instructions, knows the five predefined entities, and has no namespaces
//! or CDATA. A text run interrupted by comments or processing instructions
//! is one event, and text is **attached at close** — a run followed by a
//! child element's open tag is dropped — so each element yields at most one
//! [`XmlEvent::Text`], the run immediately preceding its close tag. The
//! reader emits that text just before `Close`, while [`TreeEvents`] emits a
//! node's stored text right after its `Open`; consumers that track "the
//! element's text" per open element (as `smoqe_hype::stream` does) are
//! agnostic to the position.

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
    /// Next unconsumed byte in `buf`. A refill may drop the bytes before it
    /// and move the rest to the front, so only offsets *relative* to `pos`
    /// survive a [`Self::byte_at`] call.
    pos: usize,
    /// Bytes discarded before `buf[0]` (for error offsets).
    discarded: usize,
    eof: bool,
    /// Names of the open elements are `open[..depth]`. The slots past
    /// `depth` keep their allocations for the next tags; `open[depth]` holds
    /// a self-closing tag's name while its `Close` is owed.
    open: Vec<String>,
    depth: usize,
    root_seen: bool,
    root_closed: bool,
    /// A self-closing tag produced an `Open`; its `Close` is owed next.
    pending_close: bool,
    /// Raw byte accumulator for the current text *fragment* (up to the next
    /// markup of any kind).
    raw_text: Vec<u8>,
    /// Unescaped accumulator for the current text *run* (fragments joined
    /// across comments/PIs, each unescaped on its own — see
    /// [`Self::flush_fragment`]); [`XmlEvent::Text`] borrows its trimmed
    /// middle.
    text_acc: String,
}

/// Bytes allowed in an element name.
fn is_name_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':')
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
            depth: 0,
            root_seen: false,
            root_closed: false,
            pending_close: false,
            raw_text: Vec::new(),
            text_acc: String::new(),
        }
    }

    /// Current nesting depth: the number of open elements, including a
    /// self-closing element whose `Close` event is still owed.
    pub fn depth(&self) -> usize {
        self.depth + usize::from(self.pending_close)
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

    /// Consumes the input through the first `pat` at or after the cursor.
    fn skip_until(&mut self, pat: &[u8]) -> Result<(), ParseError> {
        loop {
            let rest = &self.buf[self.pos..];
            if let Some(k) = rest.windows(pat.len()).position(|w| w == pat) {
                self.pos += k + pat.len();
                return Ok(());
            }
            // Keep the bytes a match straddling the refill would start with.
            let keep = rest.len().min(pat.len() - 1);
            self.pos = self.buf.len() - keep;
            if self.byte_at(keep)?.is_none() {
                return Err(ParseError::UnexpectedEof);
            }
        }
    }

    /// Skips `<!-- ... -->` or `<!DOCTYPE ...>` (cursor on `<`). The search
    /// starts *at the opener*, so degenerate forms whose terminator
    /// overlaps it (`<!-->`, `<!--->`) are accepted.
    fn skip_markup_declaration(&mut self) -> Result<(), ParseError> {
        if self.byte_at(2)? == Some(b'-') && self.byte_at(3)? == Some(b'-') {
            self.skip_until(b"-->")
        } else {
            self.skip_until(b">")
        }
    }

    /// Moves the cursor to the next byte that satisfies `hit` and returns
    /// it, or `None` at end of input.
    fn skip_to(&mut self, hit: impl Fn(u8) -> bool) -> Result<Option<u8>, ParseError> {
        loop {
            if let Some(k) = self.buf[self.pos..].iter().position(|&c| hit(c)) {
                self.pos += k;
                return Ok(Some(self.buf[self.pos]));
            }
            self.pos = self.buf.len();
            if self.byte_at(0)?.is_none() {
                return Ok(None);
            }
        }
    }

    /// Length of the element name that starts `from` bytes past the cursor.
    /// The name stays unconsumed, so it is buffered whole at
    /// `buf[pos + from..]` afterwards.
    fn name_len(&mut self, from: usize) -> Result<usize, ParseError> {
        let mut len = 0;
        loop {
            let rest = self.buf.get(self.pos + from + len..).unwrap_or_default();
            match rest.iter().position(|&c| !is_name_byte(c)) {
                Some(k) => return Ok(len + k),
                None => len += rest.len(),
            }
            if self.byte_at(from + len)?.is_none() {
                return Ok(len);
            }
        }
    }

    fn expected_name(&self, offset: usize) -> ParseError {
        ParseError::Syntax {
            offset,
            message: "expected an element name".to_owned(),
        }
    }

    /// Parses an open tag (cursor on `<`) into the open stack's next slot
    /// and returns that slot; schedules the matching `Close` for
    /// self-closing tags.
    fn parse_open_tag(&mut self) -> Result<usize, ParseError> {
        if self.root_closed {
            return Err(ParseError::TrailingContent(self.offset()));
        }
        let len = self.name_len(1)?;
        if len == 0 {
            return Err(self.expected_name(self.offset() + 1));
        }
        let name = std::str::from_utf8(&self.buf[self.pos + 1..self.pos + 1 + len])
            .expect("name bytes are ASCII");
        match self.open.get_mut(self.depth) {
            Some(slot) => {
                slot.clear();
                slot.push_str(name);
            }
            None => self.open.push(name.to_owned()),
        }
        self.pos += 1 + len;
        // Skip attributes up to `>` or `/>`; quoted values may hold either.
        let self_closing = loop {
            match self.skip_to(|c| matches!(c, b'>' | b'/' | b'"' | b'\''))? {
                Some(b'>') => {
                    self.pos += 1;
                    break false;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.byte_at(0)? == Some(b'>') {
                        self.pos += 1;
                        break true;
                    }
                }
                Some(quote) => {
                    self.pos += 1;
                    if self.skip_to(|c| c == quote)?.is_none() {
                        return Err(ParseError::UnexpectedEof);
                    }
                    self.pos += 1;
                }
                None => return Err(ParseError::UnexpectedEof),
            }
        };
        self.root_seen = true;
        let slot = self.depth;
        if self_closing {
            self.pending_close = true;
            self.root_closed = self.depth == 0;
        } else {
            self.depth += 1;
        }
        Ok(slot)
    }

    /// Parses a closing tag (cursor on `<`, next byte `/`), comparing its
    /// name with the open element's where it lies in the buffer.
    fn parse_close_tag(&mut self) -> Result<(), ParseError> {
        let len = self.name_len(2)?;
        if len == 0 {
            return Err(self.expected_name(self.offset() + 2));
        }
        if self.byte_at(2 + len)? != Some(b'>') {
            return Err(ParseError::Syntax {
                offset: self.offset() + 2 + len,
                message: "expected '>' after closing tag name".to_owned(),
            });
        }
        if self.depth == 0 {
            return Err(ParseError::Syntax {
                offset: self.offset(),
                message: "closing tag with no open element".to_owned(),
            });
        }
        let found = &self.buf[self.pos + 2..self.pos + 2 + len];
        let open_name = &self.open[self.depth - 1];
        if found != open_name.as_bytes() {
            return Err(ParseError::MismatchedTag {
                expected: open_name.clone(),
                found: String::from_utf8_lossy(found).into_owned(),
                offset: self.offset(),
            });
        }
        self.pos += 3 + len;
        self.depth -= 1;
        self.root_closed = self.depth == 0;
        Ok(())
    }

    /// Unescapes the raw fragment gathered so far and appends it to the
    /// run accumulator.
    ///
    /// Each fragment is unescaped **separately**, so an entity reference
    /// split by a comment — `a&am<!-- -->p;b` — stays the literal `a&amp;b`
    /// rather than collapsing to `a&b`.
    ///
    /// Text after the root is an error at the end of its first non-blank
    /// fragment.
    fn flush_fragment(&mut self) -> Result<(), ParseError> {
        if !self.raw_text.is_empty() {
            let raw = String::from_utf8_lossy(&self.raw_text);
            if raw.contains('&') {
                self.text_acc.push_str(&unescape(&raw));
            } else {
                self.text_acc.push_str(&raw);
            }
            self.raw_text.clear();
        }
        if self.root_closed && !self.text_acc.trim().is_empty() {
            return Err(ParseError::TrailingContent(self.offset()));
        }
        Ok(())
    }

    /// Accumulates the text run at the cursor (spanning comments and PIs)
    /// into `text_acc`. Returns `true` if the run is an element's text: not
    /// blank, and followed by its close tag.
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
                        // Comments and PIs end a fragment but not the run.
                        Some(b'?') => {
                            self.flush_fragment()?;
                            self.skip_until(b"?>")?;
                        }
                        Some(b'!') => {
                            self.flush_fragment()?;
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
        self.flush_fragment()?;
        // Top-level text is ignored before the root; after it,
        // `flush_fragment` has rejected any that is not blank.
        if self.depth == 0 {
            return Ok(false);
        }
        // Text is attached at *close*: a run followed by a child's open tag
        // is dropped.
        if self.byte_at(0)? == Some(b'<') && self.byte_at(1)? != Some(b'/') {
            return Ok(false);
        }
        Ok(!self.text_acc.trim().is_empty())
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
                    if self.depth != 0 {
                        return Err(ParseError::UnexpectedEof);
                    }
                    if !self.root_seen {
                        return Err(ParseError::EmptyDocument);
                    }
                    return Ok(None);
                }
                Some(b'<') => match self.byte_at(1)? {
                    // The search starts at the opener: `<?>` is a complete
                    // processing instruction.
                    Some(b'?') => self.skip_until(b"?>")?,
                    Some(b'!') => self.skip_markup_declaration()?,
                    Some(b'/') => {
                        self.parse_close_tag()?;
                        return Ok(Some(XmlEvent::Close));
                    }
                    _ => {
                        let slot = self.parse_open_tag()?;
                        return Ok(Some(XmlEvent::Open(&self.open[slot])));
                    }
                },
                Some(_) => {
                    if self.read_text_run()? {
                        return Ok(Some(XmlEvent::Text(self.text_acc.trim())));
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

    /// Renders an event list compactly: `Open(n)` as `n(`, `Text(t)` as
    /// `"t"`, `Close` as `)` — so `<r><a>x</a><b/></r>` reads `r(a("x")b())`.
    fn render(events: &[Owned]) -> String {
        let mut out = String::new();
        for event in events {
            match event {
                Owned::Open(n) => {
                    out.push_str(n);
                    out.push('(');
                }
                Owned::Text(t) => {
                    out.push('"');
                    out.push_str(t);
                    out.push('"');
                }
                Owned::Close => out.push(')'),
            }
        }
        out
    }

    fn read_rendered(xml: &str) -> Result<String, ParseError> {
        read_events(xml).map(|events| render(&events))
    }

    fn mismatched(expected: &str, found: &str, offset: usize) -> ParseError {
        ParseError::MismatchedTag {
            expected: expected.into(),
            found: found.into(),
            offset,
        }
    }

    #[test]
    fn errors_match_the_tree_parser() {
        for (xml, expected) in [
            ("<a><b></a></b>", mismatched("b", "a", 6)),
            ("<a><b>", ParseError::UnexpectedEof),
            ("   ", ParseError::EmptyDocument),
            ("<!-- only a comment -->", ParseError::EmptyDocument),
            ("<a></a><b></b>", ParseError::TrailingContent(7)),
            ("<a/>junk", ParseError::TrailingContent(8)),
            ("<a/> x <!-- c -->", ParseError::TrailingContent(7)),
        ] {
            assert_eq!(read_events(xml).unwrap_err(), expected, "on {xml:?}");
        }
    }

    #[test]
    fn entities_split_by_comments_match_the_tree_parser() {
        // Each fragment between markup is unescaped on its own, so a comment
        // interrupting `&amp;` leaves the literal characters `a&amp;b`; the
        // raw fragments are never joined first and unescaped to `a&b`.
        for (xml, text) in [
            ("<r><a>a&am<!-- split -->p;b</a></r>", "a&amp;b"),
            ("<r><a>a&am<?pi?>p;b</a></r>", "a&amp;b"),
            ("<r><a>x&lt;<!-- c -->&gt;y</a></r>", "x<>y"),
            ("<r><a>&amp;<!-- c -->&amp;</a></r>", "&&"),
        ] {
            assert_eq!(
                read_rendered(xml).unwrap(),
                format!("r(a(\"{text}\"))"),
                "on {xml:?}"
            );
            let tree = parse_document(xml).unwrap();
            let a = tree.children(tree.root())[0];
            assert_eq!(tree.text(a), Some(text), "parse_document on {xml:?}");
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
        // Text is attached at close: a run followed by a child's open tag is
        // dropped, so streamed evaluation sees what the built tree holds.
        for (xml, events, a_text) in [
            ("<r><a>x<b/>y</a></r>", r#"r(a(b()"y"))"#, Some("y")),
            ("<r><a>x<b/></a></r>", "r(a(b()))", None),
            ("<r><a>x<!-- c --><b/></a></r>", "r(a(b()))", None),
        ] {
            assert_eq!(read_rendered(xml).unwrap(), events, "on {xml:?}");
            let tree = parse_document(xml).unwrap();
            let a = tree.children(tree.root())[0];
            assert_eq!(tree.text(a), a_text, "parse_document on {xml:?}");
        }
    }

    #[test]
    fn reader_accepts_exactly_what_parse_document_accepts() {
        for (xml, expected) in [
            ("<r/>", Ok("r()")),
            ("<r>t</r>", Ok(r#"r("t")"#)),
            ("<r><a/><b>x</b></r>", Ok(r#"r(a()b("x"))"#)),
            ("<?xml version=\"1.0\"?><r/>", Ok("r()")),
            ("<a><b></a></b>", Err(mismatched("b", "a", 6))),
            ("<a><b>", Err(ParseError::UnexpectedEof)),
            ("", Err(ParseError::EmptyDocument)),
            ("<a></a><b></b>", Err(ParseError::TrailingContent(7))),
            ("<a>text</a>more", Err(ParseError::TrailingContent(15))),
            // Degenerate comment/PI forms whose terminators overlap their
            // openers are accepted: the search starts at the opener.
            ("<a><!--></a>", Ok("a()")),
            ("<a><!---></a>", Ok("a()")),
            ("<a><?></a>", Ok("a()")),
            ("<a>t<!-->u</a>", Ok(r#"a("tu")"#)),
        ] {
            let expected = expected.map(str::to_owned);
            assert_eq!(read_rendered(xml), expected, "reader on {xml:?}");
            let tree =
                parse_document(xml).map(|t| render(&collect(&mut TreeEvents::new(&t)).unwrap()));
            assert_eq!(tree, expected, "parse_document on {xml:?}");
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
        // Errors and their offsets do not depend on the chunking either.
        for xml in [
            "<alpha><beta></alpha>",
            "<alpha></alpha >",
            "<alpha></ alpha>",
            "<alpha x=\"1",
            "<alpha><!-- never closed -",
            "<alpha/> x <!-- c -->",
        ] {
            let bytewise = collect(&mut XmlStreamReader::new(OneByte(xml.as_bytes())));
            assert_eq!(bytewise, read_events(xml), "on {xml:?}");
            assert!(bytewise.is_err(), "on {xml:?}");
        }
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
