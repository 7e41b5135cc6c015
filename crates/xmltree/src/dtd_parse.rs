//! Parsing and printing of DTDs in (a subset of) the standard XML DTD
//! syntax, plus conversion into the paper's normal form.
//!
//! The paper (Section 2.2) works with DTDs `(Ele, P, r)` where every
//! production is `str`, `ε`, a concatenation of (possibly starred) element
//! types, or a disjunction of element types, and notes that *any* DTD can be
//! brought into this form by introducing new element types. This module
//! implements both directions:
//!
//! * [`parse_dtd`] reads `<!ELEMENT …>` declarations covering the common
//!   content models (`EMPTY`, `(#PCDATA)`, sequences and choices of element
//!   names with `?`/`*`/`+` multiplicities) and normalises them,
//!   introducing auxiliary `_choice`/`_opt` element types where needed;
//! * [`to_dtd_string`] prints a normal-form [`Dtd`] back as `<!ELEMENT …>`
//!   declarations, so generated schemas can be inspected or exported.

use crate::dtd::{Child, ContentModel, Dtd};
use crate::error::ParseError;

/// Parses a DTD document (a sequence of `<!ELEMENT …>` declarations; other
/// declarations and comments are skipped) into a normal-form [`Dtd`].
///
/// The first declared element type becomes the root unless a different root
/// is requested with [`parse_dtd_with_root`].
///
/// ```
/// let dtd = smoqe_xml::dtd_parse::parse_dtd(r#"
///     <!ELEMENT library (book*)>
///     <!ELEMENT book (title, author+)>
///     <!ELEMENT title (#PCDATA)>
///     <!ELEMENT author (#PCDATA)>
/// "#).unwrap();
/// assert_eq!(dtd.root(), "library");
/// assert!(!dtd.is_recursive());
/// ```
pub fn parse_dtd(input: &str) -> Result<Dtd, ParseError> {
    let declarations = scan_declarations(input)?;
    let root = declarations
        .first()
        .map(|d| d.name.clone())
        .ok_or(ParseError::EmptyDocument)?;
    build(declarations, &root)
}

/// Like [`parse_dtd`] but with an explicit root element type.
pub fn parse_dtd_with_root(input: &str, root: &str) -> Result<Dtd, ParseError> {
    let declarations = scan_declarations(input)?;
    build(declarations, root)
}

/// Prints a normal-form DTD as `<!ELEMENT …>` declarations (root first).
pub fn to_dtd_string(dtd: &Dtd) -> String {
    let mut out = String::new();
    let mut types: Vec<&str> = dtd.element_types();
    // Root first, then the rest alphabetically for stable output.
    types.sort_unstable();
    let mut ordered = vec![dtd.root()];
    ordered.extend(types.into_iter().filter(|t| *t != dtd.root()));
    for ty in ordered {
        let model = dtd.production(ty).expect("listed type has a production");
        let content = match model {
            ContentModel::Text => "(#PCDATA)".to_owned(),
            ContentModel::Empty => "EMPTY".to_owned(),
            ContentModel::Sequence(children) if children.is_empty() => "EMPTY".to_owned(),
            ContentModel::Sequence(children) => {
                let parts: Vec<String> = children
                    .iter()
                    .map(|c| {
                        if c.starred {
                            format!("{}*", c.ty)
                        } else {
                            c.ty.clone()
                        }
                    })
                    .collect();
                format!("({})", parts.join(", "))
            }
            ContentModel::Choice(options) => format!("({})", options.join(" | ")),
        };
        out.push_str(&format!("<!ELEMENT {ty} {content}>\n"));
    }
    out
}

// ---------------------------------------------------------------------------
// Scanning <!ELEMENT …> declarations.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Declaration {
    name: String,
    content: RawContent,
}

/// The content model as written, before normalisation.
#[derive(Debug, Clone, PartialEq)]
enum RawContent {
    Empty,
    Any,
    Pcdata,
    /// A group: sequence or choice of items.
    Group(Group),
}

#[derive(Debug, Clone, PartialEq)]
struct Group {
    choice: bool,
    items: Vec<Item>,
}

#[derive(Debug, Clone, PartialEq)]
struct Item {
    particle: Particle,
    occurrence: Occurrence,
}

#[derive(Debug, Clone, PartialEq)]
enum Particle {
    Name(String),
    Group(Group),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Occurrence {
    One,
    Optional, // ?
    Star,     // *
    Plus,     // +
}

fn scan_declarations(input: &str) -> Result<Vec<Declaration>, ParseError> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'<' {
            if input[i..].starts_with("<!--") {
                i = input[i..]
                    .find("-->")
                    .map(|j| i + j + 3)
                    .ok_or(ParseError::UnexpectedEof)?;
                continue;
            }
            if input[i..].starts_with("<!ELEMENT") {
                let end = input[i..].find('>').ok_or(ParseError::UnexpectedEof)? + i;
                let body = &input[i + "<!ELEMENT".len()..end];
                out.push(parse_declaration(body, i)?);
                i = end + 1;
                continue;
            }
            // Any other markup (<?xml …?>, <!ATTLIST …>, <!ENTITY …>) is skipped.
            let end = input[i..].find('>').ok_or(ParseError::UnexpectedEof)? + i;
            i = end + 1;
        } else {
            i += 1;
        }
    }
    Ok(out)
}

fn parse_declaration(body: &str, offset: usize) -> Result<Declaration, ParseError> {
    let mut parser = DeclParser {
        input: body.as_bytes(),
        pos: 0,
        offset,
    };
    parser.skip_ws();
    let name = parser.name()?;
    parser.skip_ws();
    let content = parser.content()?;
    parser.skip_ws();
    if parser.pos != parser.input.len() {
        return Err(ParseError::Syntax {
            offset: offset + parser.pos,
            message: "unexpected trailing content in element declaration".to_owned(),
        });
    }
    Ok(Declaration { name, content })
}

struct DeclParser<'a> {
    input: &'a [u8],
    pos: usize,
    offset: usize,
}

impl DeclParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .input
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn error(&self, message: &str) -> ParseError {
        ParseError::Syntax {
            offset: self.offset + self.pos,
            message: message.to_owned(),
        }
    }

    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while self.input.get(self.pos).is_some_and(|c| {
            c.is_ascii_alphanumeric() || *c == b'_' || *c == b'-' || *c == b'.' || *c == b':'
        }) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn content(&mut self) -> Result<RawContent, ParseError> {
        self.skip_ws();
        if self.starts_with("EMPTY") {
            self.pos += 5;
            return Ok(RawContent::Empty);
        }
        if self.starts_with("ANY") {
            self.pos += 3;
            return Ok(RawContent::Any);
        }
        if self.input.get(self.pos) == Some(&b'(') {
            // Either (#PCDATA …) or a group.
            let save = self.pos;
            self.pos += 1;
            self.skip_ws();
            if self.starts_with("#PCDATA") {
                self.pos += "#PCDATA".len();
                self.skip_ws();
                // Mixed content `(#PCDATA | a | b)*` is reduced to text-only.
                while self.input.get(self.pos) != Some(&b')') {
                    if self.pos >= self.input.len() {
                        return Err(self.error("unterminated (#PCDATA …) group"));
                    }
                    self.pos += 1;
                }
                self.pos += 1; // ')'
                if self.input.get(self.pos) == Some(&b'*') {
                    self.pos += 1;
                }
                return Ok(RawContent::Pcdata);
            }
            self.pos = save;
            let group = self.group()?;
            return Ok(RawContent::Group(group));
        }
        Err(self.error("expected EMPTY, ANY, (#PCDATA) or a content group"))
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn group(&mut self) -> Result<Group, ParseError> {
        if self.input.get(self.pos) != Some(&b'(') {
            return Err(self.error("expected '('"));
        }
        self.pos += 1;
        let mut items = Vec::new();
        let mut choice = false;
        loop {
            self.skip_ws();
            let particle = if self.input.get(self.pos) == Some(&b'(') {
                Particle::Group(self.group()?)
            } else {
                Particle::Name(self.name()?)
            };
            let occurrence = self.occurrence();
            items.push(Item {
                particle,
                occurrence,
            });
            self.skip_ws();
            match self.input.get(self.pos) {
                Some(b',') => {
                    if choice && items.len() > 1 {
                        return Err(self.error("cannot mix ',' and '|' in one group"));
                    }
                    self.pos += 1;
                }
                Some(b'|') => {
                    choice = true;
                    self.pos += 1;
                }
                Some(b')') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.error("expected ',', '|' or ')' in content group")),
            }
        }
        Ok(Group { choice, items })
    }

    fn occurrence(&mut self) -> Occurrence {
        match self.input.get(self.pos) {
            Some(b'?') => {
                self.pos += 1;
                Occurrence::Optional
            }
            Some(b'*') => {
                self.pos += 1;
                Occurrence::Star
            }
            Some(b'+') => {
                self.pos += 1;
                Occurrence::Plus
            }
            _ => Occurrence::One,
        }
    }
}

// ---------------------------------------------------------------------------
// Normalisation into the paper's normal form.
// ---------------------------------------------------------------------------

struct Normalizer {
    dtd: Dtd,
    fresh: usize,
}

fn build(declarations: Vec<Declaration>, root: &str) -> Result<Dtd, ParseError> {
    if !declarations.iter().any(|d| d.name == root) {
        return Err(ParseError::Syntax {
            offset: 0,
            message: format!("root element type <{root}> is not declared"),
        });
    }
    let mut normalizer = Normalizer {
        dtd: Dtd::new(root),
        fresh: 0,
    };
    for decl in &declarations {
        let model = normalizer.normalize(&decl.name, &decl.content, &declarations)?;
        normalizer.dtd.define(&decl.name, model);
    }
    Ok(normalizer.dtd)
}

impl Normalizer {
    fn normalize(
        &mut self,
        owner: &str,
        content: &RawContent,
        declarations: &[Declaration],
    ) -> Result<ContentModel, ParseError> {
        match content {
            RawContent::Empty => Ok(ContentModel::Empty),
            RawContent::Pcdata => Ok(ContentModel::Text),
            // `ANY` is approximated by a star over every declared element type.
            RawContent::Any => Ok(ContentModel::Sequence(
                declarations.iter().map(|d| Child::star(&d.name)).collect(),
            )),
            RawContent::Group(group) => self.normalize_group(owner, group),
        }
    }

    fn normalize_group(&mut self, owner: &str, group: &Group) -> Result<ContentModel, ParseError> {
        if group.choice {
            // A choice of plain names maps directly; anything more complex
            // gets an auxiliary type per alternative.
            let mut options = Vec::new();
            for item in &group.items {
                let name = self.item_as_type(owner, item)?;
                options.push(name);
            }
            if options.len() == 1 {
                // `(a)` — a one-element "choice" is just a sequence of one.
                return Ok(ContentModel::Sequence(vec![Child::one(&options[0])]));
            }
            Ok(ContentModel::Choice(options))
        } else {
            let mut children = Vec::new();
            for item in &group.items {
                match (&item.particle, item.occurrence) {
                    (Particle::Name(name), Occurrence::One) => children.push(Child::one(name)),
                    (Particle::Name(name), Occurrence::Star) => children.push(Child::star(name)),
                    // `a+` ≡ `a, a*` and `a?` ≡ `a*` up to cardinality; the
                    // normal form only has `B` and `B*`, so `+` becomes a
                    // mandatory child followed by a starred one, and `?`
                    // becomes a starred child (a slight relaxation that
                    // never rejects a valid document).
                    (Particle::Name(name), Occurrence::Plus) => {
                        children.push(Child::one(name));
                        children.push(Child::star(name));
                    }
                    (Particle::Name(name), Occurrence::Optional) => {
                        children.push(Child::star(name))
                    }
                    (Particle::Group(inner), occurrence) => {
                        // Nested groups get an auxiliary element type.
                        let aux = self.fresh_type(owner);
                        let model = self.normalize_group(&aux, inner)?;
                        self.dtd.define(&aux, model);
                        match occurrence {
                            Occurrence::One => children.push(Child::one(&aux)),
                            Occurrence::Plus => {
                                children.push(Child::one(&aux));
                                children.push(Child::star(&aux));
                            }
                            Occurrence::Star | Occurrence::Optional => {
                                children.push(Child::star(&aux))
                            }
                        }
                    }
                }
            }
            Ok(ContentModel::Sequence(children))
        }
    }

    /// Returns the element-type name representing one choice alternative,
    /// introducing an auxiliary type when the alternative is not a plain,
    /// singly-occurring name.
    fn item_as_type(&mut self, owner: &str, item: &Item) -> Result<String, ParseError> {
        match (&item.particle, item.occurrence) {
            (Particle::Name(name), Occurrence::One) => Ok(name.clone()),
            (Particle::Name(name), _) => {
                let aux = self.fresh_type(owner);
                let child = if item.occurrence == Occurrence::Plus {
                    vec![Child::one(name), Child::star(name)]
                } else {
                    vec![Child::star(name)]
                };
                self.dtd.define(&aux, ContentModel::Sequence(child));
                Ok(aux)
            }
            (Particle::Group(inner), _) => {
                let aux = self.fresh_type(owner);
                let model = self.normalize_group(&aux, inner)?;
                self.dtd.define(&aux, model);
                Ok(aux)
            }
        }
    }

    fn fresh_type(&mut self, owner: &str) -> String {
        self.fresh += 1;
        format!("{owner}_grp{}", self.fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hospital::hospital_document_dtd;
    use crate::tree::XmlTreeBuilder;

    const LIBRARY: &str = r#"
        <?xml version="1.0"?>
        <!-- a small library schema -->
        <!ELEMENT library (book*)>
        <!ELEMENT book (title, author+, year?)>
        <!ELEMENT title (#PCDATA)>
        <!ELEMENT author (#PCDATA)>
        <!ELEMENT year (#PCDATA)>
    "#;

    #[test]
    fn parses_a_simple_schema() {
        let dtd = parse_dtd(LIBRARY).unwrap();
        assert_eq!(dtd.root(), "library");
        dtd.check_well_formed().unwrap();
        assert!(!dtd.is_recursive());
        // `author+` became `author, author*`; `year?` became `year*`.
        let book = dtd.production("book").unwrap();
        assert_eq!(
            book,
            &ContentModel::Sequence(vec![
                Child::one("title"),
                Child::one("author"),
                Child::star("author"),
                Child::star("year"),
            ])
        );
    }

    #[test]
    fn parsed_schema_validates_documents() {
        let dtd = parse_dtd(LIBRARY).unwrap();
        let mut b = XmlTreeBuilder::new();
        let root = b.root("library");
        let book = b.child(root, "book");
        b.child_with_text(book, "title", "Rewriting Regular XPath Queries");
        b.child_with_text(book, "author", "Fan");
        b.child_with_text(book, "author", "Geerts");
        let tree = b.finish();
        dtd.validate(&tree).unwrap();

        // Missing title is rejected.
        let mut b = XmlTreeBuilder::new();
        let root = b.root("library");
        let book = b.child(root, "book");
        b.child_with_text(book, "author", "Jia");
        assert!(dtd.validate(&b.finish()).is_err());
    }

    #[test]
    fn parses_choice_and_empty_and_recursion() {
        let dtd = parse_dtd(
            r#"
            <!ELEMENT record (empty | diagnosis)>
            <!ELEMENT empty EMPTY>
            <!ELEMENT diagnosis (#PCDATA)>
            <!ELEMENT tree (tree*, record)>
        "#,
        )
        .unwrap();
        assert_eq!(
            dtd.production("record").unwrap(),
            &ContentModel::Choice(vec!["empty".to_owned(), "diagnosis".to_owned()])
        );
        assert_eq!(dtd.production("empty").unwrap(), &ContentModel::Empty);
        let with_tree_root = parse_dtd_with_root(
            r#"
            <!ELEMENT record (empty | diagnosis)>
            <!ELEMENT empty EMPTY>
            <!ELEMENT diagnosis (#PCDATA)>
            <!ELEMENT tree (tree*, record)>
        "#,
            "tree",
        )
        .unwrap();
        assert_eq!(with_tree_root.root(), "tree");
        assert!(with_tree_root.is_recursive());
    }

    #[test]
    fn nested_groups_introduce_auxiliary_types() {
        let dtd = parse_dtd(
            r#"
            <!ELEMENT order (item, (giftwrap | note)*)>
            <!ELEMENT item (#PCDATA)>
            <!ELEMENT giftwrap EMPTY>
            <!ELEMENT note (#PCDATA)>
        "#,
        )
        .unwrap();
        dtd.check_well_formed().unwrap();
        // An auxiliary type was introduced for the starred choice group.
        let aux: Vec<&str> = dtd
            .element_types()
            .into_iter()
            .filter(|t| t.contains("_grp"))
            .collect();
        assert_eq!(aux.len(), 1);
        let order = dtd.production("order").unwrap();
        assert!(matches!(order, ContentModel::Sequence(children)
            if children.len() == 2 && children[1].starred));
    }

    #[test]
    fn mixed_content_is_reduced_to_text() {
        let dtd = parse_dtd(
            r#"
            <!ELEMENT para (#PCDATA | emph)*>
            <!ELEMENT emph (#PCDATA)>
        "#,
        )
        .unwrap();
        assert_eq!(dtd.production("para").unwrap(), &ContentModel::Text);
    }

    #[test]
    fn any_content_allows_every_type() {
        let dtd = parse_dtd(
            r#"
            <!ELEMENT root ANY>
            <!ELEMENT a (#PCDATA)>
            <!ELEMENT b EMPTY>
        "#,
        )
        .unwrap();
        let root = dtd.production("root").unwrap();
        assert!(matches!(root, ContentModel::Sequence(children) if children.len() == 3));
    }

    #[test]
    fn round_trips_the_hospital_dtd() {
        let original = hospital_document_dtd();
        let text = to_dtd_string(&original);
        let reparsed = parse_dtd_with_root(&text, "hospital").unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn errors_are_reported_with_context() {
        assert!(parse_dtd("").is_err());
        assert!(parse_dtd("<!ELEMENT a (b,>").is_err());
        assert!(parse_dtd("<!ELEMENT a (b | c, d)>").is_err());
        assert!(parse_dtd_with_root("<!ELEMENT a (#PCDATA)>", "zzz").is_err());
        let err = parse_dtd("<!ELEMENT a WEIRD>").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { .. }));
    }

    #[test]
    fn attlist_and_entity_declarations_are_ignored() {
        let dtd = parse_dtd(
            r#"
            <!ELEMENT a (b*)>
            <!ATTLIST a id ID #REQUIRED>
            <!ENTITY % common "ignored">
            <!ELEMENT b (#PCDATA)>
        "#,
        )
        .unwrap();
        assert_eq!(dtd.len(), 2);
    }
}
