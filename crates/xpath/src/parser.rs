//! Parser for the ASCII surface syntax of (regular) XPath queries.
//!
//! Grammar (precedence low → high):
//!
//! ```text
//! path      := seq ('|' seq)*
//! seq       := step (('/' | '//') step)*            -- '//' inserts descendant-or-self
//! step      := primary ('*' | '[' pred ']')*
//! primary   := '.' | label | '*' | '(' path ')' | '//' step
//!
//! pred      := andp ('or' andp)*
//! andp      := unary ('and' unary)*
//! unary     := 'not' '(' pred ')' | '(' pred ')' | pathpred
//! pathpred  := path ['/text()' '=' string]  |  'text()' '=' string
//! ```
//!
//! `||`, `&&`, `!` are accepted as synonyms of `or`, `and`, `not`, matching
//! the Boolean connectives `∨`, `∧`, `¬` of the paper. String literals may
//! use single or double quotes.

use std::fmt;

use crate::ast::{Path, Pred};

/// Error produced when a query string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQueryError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human readable description.
    pub message: String,
}

impl fmt::Display for ParseQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query parse error at offset {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseQueryError {}

/// Parses a (regular) XPath query.
///
/// ```
/// use smoqe_xpath::{parse_path, Path};
///
/// let q = parse_path("(patient/parent)*/patient[record/diagnosis/text()='heart disease']")
///     .unwrap();
/// assert!(q.contains_star());
/// let x = parse_path("patient[*//record/diagnosis/text()=\"heart disease\"]").unwrap();
/// assert!(x.contains_xpath_axes());
/// ```
pub fn parse_path(input: &str) -> Result<Path, ParseQueryError> {
    let tokens = lex(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let path = parser.path()?;
    if parser.pos != parser.tokens.len() {
        return Err(parser.error("unexpected trailing input"));
    }
    Ok(path)
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Slash,
    DoubleSlash,
    Pipe,
    Star,
    Dot,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Eq,
    Text, // `text()`
    And,
    Or,
    Not,
    Name(String),
    Str(String),
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    offset: usize,
}

fn lex(input: &str) -> Result<Vec<Spanned>, ParseQueryError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let offset = i;
        match c {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'/' => {
                if bytes.get(i + 1) == Some(&b'/') {
                    out.push(Spanned {
                        tok: Tok::DoubleSlash,
                        offset,
                    });
                    i += 2;
                } else {
                    out.push(Spanned {
                        tok: Tok::Slash,
                        offset,
                    });
                    i += 1;
                }
            }
            b'|' => {
                // Accept both `|` (union) and `||` (or).
                if bytes.get(i + 1) == Some(&b'|') {
                    out.push(Spanned {
                        tok: Tok::Or,
                        offset,
                    });
                    i += 2;
                } else {
                    out.push(Spanned {
                        tok: Tok::Pipe,
                        offset,
                    });
                    i += 1;
                }
            }
            b'&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    out.push(Spanned {
                        tok: Tok::And,
                        offset,
                    });
                    i += 2;
                } else {
                    return Err(ParseQueryError {
                        offset,
                        message: "single '&' is not a valid operator (use 'and' or '&&')".into(),
                    });
                }
            }
            b'!' => {
                out.push(Spanned {
                    tok: Tok::Not,
                    offset,
                });
                i += 1;
            }
            b'*' => {
                out.push(Spanned {
                    tok: Tok::Star,
                    offset,
                });
                i += 1;
            }
            b'.' => {
                out.push(Spanned {
                    tok: Tok::Dot,
                    offset,
                });
                i += 1;
            }
            b'(' => {
                out.push(Spanned {
                    tok: Tok::LParen,
                    offset,
                });
                i += 1;
            }
            b')' => {
                out.push(Spanned {
                    tok: Tok::RParen,
                    offset,
                });
                i += 1;
            }
            b'[' => {
                out.push(Spanned {
                    tok: Tok::LBracket,
                    offset,
                });
                i += 1;
            }
            b']' => {
                out.push(Spanned {
                    tok: Tok::RBracket,
                    offset,
                });
                i += 1;
            }
            b'=' => {
                out.push(Spanned {
                    tok: Tok::Eq,
                    offset,
                });
                i += 1;
            }
            b'\'' | b'"' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != quote {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(ParseQueryError {
                        offset,
                        message: "unterminated string literal".into(),
                    });
                }
                out.push(Spanned {
                    tok: Tok::Str(input[start..j].to_owned()),
                    offset,
                });
                i = j + 1;
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'-'
                        || bytes[i] == b'.')
                {
                    i += 1;
                }
                let word = &input[start..i];
                // `text()` is a single token.
                if word == "text" && bytes.get(i) == Some(&b'(') && bytes.get(i + 1) == Some(&b')')
                {
                    out.push(Spanned {
                        tok: Tok::Text,
                        offset,
                    });
                    i += 2;
                } else {
                    let tok = match word {
                        "and" => Tok::And,
                        "or" => Tok::Or,
                        "not" => Tok::Not,
                        _ => Tok::Name(word.to_owned()),
                    };
                    out.push(Spanned { tok, offset });
                }
            }
            _ => {
                return Err(ParseQueryError {
                    offset,
                    message: format!(
                        "unexpected character '{}'",
                        input[i..].chars().next().unwrap()
                    ),
                });
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Upper bound on grammar recursion depth. The parser is recursive-descent,
/// so without a budget a query like `((((((…a…))))))` with tens of thousands
/// of parens overflows the thread stack; queries are adversarial input in the
/// fuzz campaign, so nesting past this bound is a parse error, not a crash.
const MAX_QUERY_DEPTH: usize = 256;

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Current grammar recursion depth (see [`MAX_QUERY_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), ParseQueryError> {
        if self.eat(&tok) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {what}")))
        }
    }

    fn error(&self, message: &str) -> ParseQueryError {
        let offset = self
            .tokens
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or_else(|| self.tokens.last().map(|s| s.offset + 1).unwrap_or(0));
        ParseQueryError {
            offset,
            message: message.to_owned(),
        }
    }

    /// Bumps the recursion depth, erroring out past [`MAX_QUERY_DEPTH`].
    /// Callers pair it with a decrement after the guarded body returns, on
    /// success *and* on error, so the counter stays balanced across the
    /// backtracking in [`Parser::unary_pred`].
    fn enter(&mut self) -> Result<(), ParseQueryError> {
        self.depth += 1;
        if self.depth > MAX_QUERY_DEPTH {
            return Err(self.error("query nesting too deep"));
        }
        Ok(())
    }

    // path := seq ('|' seq)*
    fn path(&mut self) -> Result<Path, ParseQueryError> {
        self.enter()?;
        let result = self.path_inner();
        self.depth -= 1;
        result
    }

    fn path_inner(&mut self) -> Result<Path, ParseQueryError> {
        let mut left = self.seq()?;
        while self.eat(&Tok::Pipe) {
            let right = self.seq()?;
            left = Path::Union(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    // seq := step (('/' | '//') step)*   -- stops before '/text()'
    fn seq(&mut self) -> Result<Path, ParseQueryError> {
        let mut parts: Vec<Path> = Vec::new();
        // Leading '//' means descendant-or-self from the context node.
        if self.peek() == Some(&Tok::DoubleSlash) {
            self.pos += 1;
            parts.push(Path::DescendantOrSelf);
        }
        parts.push(self.step()?);
        loop {
            match self.peek() {
                Some(Tok::Slash) => {
                    // Stop before `/text() = '...'`, which belongs to the predicate.
                    if self.peek2() == Some(&Tok::Text) {
                        break;
                    }
                    self.pos += 1;
                    parts.push(self.step()?);
                }
                Some(Tok::DoubleSlash) => {
                    self.pos += 1;
                    parts.push(Path::DescendantOrSelf);
                    parts.push(self.step()?);
                }
                _ => break,
            }
        }
        // Right-fold into nested Seq so that `a//b` prints back as written.
        let mut iter = parts.into_iter().rev();
        let mut path = iter.next().expect("at least one step");
        for p in iter {
            path = Path::Seq(Box::new(p), Box::new(path));
        }
        Ok(path)
    }

    // step := primary ('*' | '[' pred ']')*
    fn step(&mut self) -> Result<Path, ParseQueryError> {
        let mut base = self.primary()?;
        loop {
            match self.peek() {
                Some(Tok::Star) => {
                    self.pos += 1;
                    base = Path::Star(Box::new(base));
                }
                Some(Tok::LBracket) => {
                    self.pos += 1;
                    let pred = self.pred()?;
                    self.expect(Tok::RBracket, "']' to close the filter")?;
                    base = Path::Filter(Box::new(base), Box::new(pred));
                }
                _ => break,
            }
        }
        Ok(base)
    }

    // primary := '.' | label | '*' | '(' path ')'
    fn primary(&mut self) -> Result<Path, ParseQueryError> {
        match self.peek().cloned() {
            Some(Tok::Dot) => {
                self.pos += 1;
                Ok(Path::Empty)
            }
            Some(Tok::Name(name)) => {
                self.pos += 1;
                Ok(Path::Label(name))
            }
            Some(Tok::Star) => {
                self.pos += 1;
                Ok(Path::AnyLabel)
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let p = self.path()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(p)
            }
            _ => Err(self.error("expected a step (label, '.', '*' or '(')")),
        }
    }

    // pred := andp ('or' andp)*
    fn pred(&mut self) -> Result<Pred, ParseQueryError> {
        let mut left = self.and_pred()?;
        while self.eat(&Tok::Or) {
            let right = self.and_pred()?;
            left = Pred::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_pred(&mut self) -> Result<Pred, ParseQueryError> {
        let mut left = self.unary_pred()?;
        while self.eat(&Tok::And) {
            let right = self.unary_pred()?;
            left = Pred::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary_pred(&mut self) -> Result<Pred, ParseQueryError> {
        self.enter()?;
        let result = self.unary_pred_inner();
        self.depth -= 1;
        result
    }

    fn unary_pred_inner(&mut self) -> Result<Pred, ParseQueryError> {
        match self.peek() {
            Some(Tok::Not) => {
                self.pos += 1;
                // Accept both `not(q)` and `not q` / `!q`.
                if self.eat(&Tok::LParen) {
                    let inner = self.pred()?;
                    self.expect(Tok::RParen, "')' to close not(...)")?;
                    Ok(Pred::Not(Box::new(inner)))
                } else {
                    let inner = self.unary_pred()?;
                    Ok(Pred::Not(Box::new(inner)))
                }
            }
            Some(Tok::LParen) => {
                // Could be a parenthesized predicate or a parenthesized path
                // (e.g. `(parent/patient)*/record`). Try the predicate
                // reading first; if what follows the closing paren is not a
                // Boolean connective or the end of the filter, fall back to
                // parsing a path predicate.
                let save = self.pos;
                self.pos += 1;
                if let Ok(inner) = self.pred() {
                    if self.eat(&Tok::RParen) {
                        match self.peek() {
                            None | Some(Tok::And) | Some(Tok::Or) | Some(Tok::RBracket)
                            | Some(Tok::RParen) => return Ok(inner),
                            _ => {}
                        }
                    }
                }
                self.pos = save;
                self.path_pred()
            }
            _ => self.path_pred(),
        }
    }

    // pathpred := path ['/text()' '=' string] | 'text()' '=' string
    fn path_pred(&mut self) -> Result<Pred, ParseQueryError> {
        if self.peek() == Some(&Tok::Text) {
            self.pos += 1;
            self.expect(Tok::Eq, "'=' after text()")?;
            let value = self.string_literal()?;
            return Ok(Pred::TextEq(Path::Empty, value));
        }
        let path = self.path()?;
        if self.peek() == Some(&Tok::Slash) && self.peek2() == Some(&Tok::Text) {
            self.pos += 2;
            self.expect(Tok::Eq, "'=' after text()")?;
            let value = self.string_literal()?;
            return Ok(Pred::TextEq(path, value));
        }
        Ok(Pred::Exists(path))
    }

    fn string_literal(&mut self) -> Result<String, ParseQueryError> {
        match self.bump() {
            Some(Tok::Str(s)) => Ok(s),
            _ => Err(self.error("expected a quoted string literal")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Path, Pred};

    #[test]
    fn parses_simple_chain() {
        assert_eq!(parse_path("a/b/c").unwrap(), Path::chain(&["a", "b", "c"]));
    }

    #[test]
    fn parses_union_and_star() {
        let q = parse_path("(a | b)*/c").unwrap();
        assert_eq!(
            q,
            Path::label("a")
                .or(Path::label("b"))
                .star()
                .then(Path::label("c"))
        );
    }

    #[test]
    fn parses_wildcard_vs_kleene_star() {
        // `a/*` is a wildcard step, `a*` is a Kleene star on the label.
        assert_eq!(
            parse_path("a/*").unwrap(),
            Path::label("a").then(Path::AnyLabel)
        );
        assert_eq!(parse_path("a*").unwrap(), Path::label("a").star());
        assert_eq!(
            parse_path("a/b*").unwrap(),
            Path::label("a").then(Path::label("b").star())
        );
    }

    #[test]
    fn parses_descendant_axis() {
        let q = parse_path("a//b").unwrap();
        assert_eq!(
            q,
            Path::label("a").then(Path::DescendantOrSelf.then(Path::label("b")))
        );
        let lead = parse_path("//record").unwrap();
        assert_eq!(lead, Path::DescendantOrSelf.then(Path::label("record")));
    }

    #[test]
    fn parses_filter_with_text_comparison() {
        let q = parse_path("diagnosis[text()='heart disease']").unwrap();
        assert_eq!(
            q,
            Path::label("diagnosis").filter(Pred::text_eq(Path::Empty, "heart disease"))
        );
        let q2 = parse_path("patient[record/diagnosis/text()=\"flu\"]").unwrap();
        assert_eq!(
            q2,
            Path::label("patient")
                .filter(Pred::text_eq(Path::chain(&["record", "diagnosis"]), "flu"))
        );
    }

    #[test]
    fn parses_example_1_1_query() {
        // Q from Example 1.1: patient[*//record/diagnosis/text()='heart disease']
        let q = parse_path("patient[*//record/diagnosis/text()='heart disease']").unwrap();
        assert!(q.contains_xpath_axes());
        match q {
            Path::Filter(base, pred) => {
                assert_eq!(*base, Path::label("patient"));
                assert!(matches!(*pred, Pred::TextEq(_, ref s) if s == "heart disease"));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_example_2_1_query() {
        // department/patient[q0 and (q1/(q1)*)]/pname with nested filters.
        let text = "department/patient[visit/treatment/medication/diagnosis/text() = 'heart disease' \
                    and (parent/patient[not(visit/treatment/medication/diagnosis/text() = 'heart disease')]\
                    /parent/patient[visit/treatment/medication/diagnosis/text() = 'heart disease'])\
                    /(parent/patient[not(visit/treatment/medication/diagnosis/text() = 'heart disease')]\
                    /parent/patient[visit/treatment/medication/diagnosis/text() = 'heart disease'])*]/pname";
        let q = parse_path(text).unwrap();
        assert!(q.contains_star());
        assert!(!q.contains_xpath_axes());
    }

    #[test]
    fn parses_example_4_1_query() {
        let q = parse_path(
            "(patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]",
        )
        .unwrap();
        assert!(q.contains_star());
        assert_eq!(q.labels().len(), 7);
    }

    #[test]
    fn parses_boolean_connectives_with_precedence() {
        let q = parse_path("a[b and c or d]").unwrap();
        // 'and' binds tighter than 'or'.
        match q {
            Path::Filter(_, pred) => match *pred {
                Pred::Or(left, right) => {
                    assert!(matches!(*left, Pred::And(..)));
                    assert!(matches!(*right, Pred::Exists(Path::Label(ref l)) if l == "d"));
                }
                other => panic!("expected Or at top, got {other:?}"),
            },
            _ => panic!("expected filter"),
        }
    }

    #[test]
    fn parses_ascii_synonyms() {
        let a = parse_path("a[b && !c || d]").unwrap();
        let b = parse_path("a[b and not(c) or d]").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parses_parenthesized_predicates() {
        let q = parse_path("a[(b or c) and d]").unwrap();
        match q {
            Path::Filter(_, pred) => assert!(matches!(*pred, Pred::And(..))),
            _ => panic!("expected filter"),
        }
    }

    #[test]
    fn parses_parenthesized_path_with_star_inside_filter() {
        // A path predicate starting with '(' that is NOT a Boolean grouping.
        let q = parse_path("patient[(parent/patient)*/record]").unwrap();
        match q {
            Path::Filter(_, pred) => match *pred {
                Pred::Exists(p) => assert!(p.contains_star()),
                other => panic!("expected Exists, got {other:?}"),
            },
            _ => panic!("expected filter"),
        }
    }

    #[test]
    fn parses_dot_as_empty_path() {
        assert_eq!(parse_path(".").unwrap(), Path::Empty);
        assert_eq!(
            parse_path("./a").unwrap(),
            Path::Empty.then(Path::label("a"))
        );
    }

    #[test]
    fn error_reporting() {
        assert!(parse_path("").is_err());
        assert!(parse_path("a[").is_err());
        assert!(parse_path("a]").is_err());
        assert!(parse_path("a[text()=]").is_err());
        assert!(parse_path("a/'lit'").is_err());
        assert!(parse_path("a &b").is_err());
        let err = parse_path("a[text()='unterminated]").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn display_round_trips_through_parser() {
        let queries = [
            "a/b/c",
            "(a/b)*/c",
            "a | b/c",
            "patient[record/diagnosis/text() = \"heart disease\"]",
            "a[b and not(c or d)]",
            "a//b/c",
            "*[a]/b",
            "(patient/parent)*/patient[(parent/patient)*/record]",
        ];
        for q in queries {
            let parsed = parse_path(q).unwrap();
            let printed = parsed.to_string();
            let reparsed = parse_path(&printed)
                .unwrap_or_else(|e| panic!("re-parse of `{printed}` (from `{q}`) failed: {e}"));
            assert_eq!(
                parsed, reparsed,
                "round trip failed for `{q}` -> `{printed}`"
            );
        }
    }

    // -----------------------------------------------------------------------
    // The regular-XPath surface exercised by the integration tests' view
    // query corpus (`integration_tests::view_query_corpus`), pinned here as
    // unit tests: Kleene closures, negation, unions and text predicates.
    // -----------------------------------------------------------------------

    #[test]
    fn parses_corpus_kleene_closure_over_groups() {
        // The heredity query skeleton of the paper's Example 1.1.
        let q = parse_path("(patient/parent)*/patient").unwrap();
        assert_eq!(
            q,
            Path::chain(&["patient", "parent"])
                .star()
                .then(Path::label("patient"))
        );
        assert!(q.contains_star());
        assert!(!q.contains_xpath_axes());

        let filtered = parse_path("(patient/parent)*/patient[record]").unwrap();
        assert_eq!(
            filtered,
            Path::chain(&["patient", "parent"])
                .star()
                .then(Path::label("patient").filter(Pred::exists(Path::label("record"))))
        );
    }

    #[test]
    fn parses_corpus_negation() {
        assert_eq!(
            parse_path("patient[not(parent)]").unwrap(),
            Path::label("patient").filter(Pred::exists(Path::label("parent")).not())
        );
        assert_eq!(
            parse_path("patient[not(record/diagnosis/text()='heart disease')]").unwrap(),
            Path::label("patient").filter(
                Pred::text_eq(Path::chain(&["record", "diagnosis"]), "heart disease").not()
            )
        );
        // `!` is the ASCII synonym of the paper's ¬.
        assert_eq!(
            parse_path("patient[!(parent)]").unwrap(),
            parse_path("patient[not(parent)]").unwrap()
        );
    }

    #[test]
    fn parses_corpus_union_inside_a_step() {
        let q = parse_path("patient/(record | parent/patient/record)").unwrap();
        assert_eq!(
            q,
            Path::label("patient")
                .then(Path::label("record").or(Path::chain(&["parent", "patient", "record"])))
        );
    }

    #[test]
    fn parses_corpus_text_predicates_and_conjunction() {
        let q = parse_path("patient[record/diagnosis/text()='heart disease' and parent]").unwrap();
        assert_eq!(
            q,
            Path::label("patient").filter(
                Pred::text_eq(Path::chain(&["record", "diagnosis"]), "heart disease")
                    .and(Pred::exists(Path::label("parent")))
            )
        );

        // Closure *inside* a filter, with a nested text predicate — the most
        // complex shape in the corpus.
        let nested = parse_path(
            "(patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]",
        )
        .unwrap();
        assert_eq!(
            nested,
            Path::chain(&["patient", "parent"]).star().then(
                Path::label("patient").filter(Pred::exists(
                    Path::chain(&["parent", "patient"]).star().then(
                        Path::label("record").then(
                            Path::label("diagnosis")
                                .filter(Pred::text_eq(Path::Empty, "heart disease"))
                        )
                    )
                ))
            )
        );
    }

    #[test]
    fn rejects_malformed_corpus_variants() {
        // Broken versions of corpus queries; each must fail with an offset
        // inside the input, not panic or mis-parse.
        let malformed = [
            "(patient/parent*",                            // unclosed group
            "(patient/parent)*/",                          // dangling slash
            "patient[not(parent]",                         // unclosed not(...)
            "patient[record |]",                           // union missing operand
            "patient[record/diagnosis/text()=heart]",      // unquoted string
            "patient[record/diagnosis/text()]",            // text() outside comparison
            "patient[]",                                   // empty predicate
            "| patient",                                   // union missing left operand
            "patient[not]",                                // not without an operand
            "patient[record/diagnosis/text()='heart' or]", // or missing operand
        ];
        for q in malformed {
            let err = parse_path(q).unwrap_err();
            assert!(
                err.offset <= q.len(),
                "error offset {} outside input `{q}`",
                err.offset
            );
            assert!(!err.message.is_empty());
        }
    }

    #[test]
    fn moderately_nested_queries_parse() {
        // Well within the budget: nesting depth 100 in groups, filters and
        // `not` chains all parse and round-trip.
        let grouped = format!("{}patient{}", "(".repeat(100), ")".repeat(100));
        let parsed = parse_path(&grouped).unwrap();
        assert_eq!(parsed, Path::Label("patient".into()));

        let nots = format!("patient[{}record{}]", "not(".repeat(100), ")".repeat(100));
        parse_path(&nots).unwrap();

        let mut filters = String::from("record");
        for _ in 0..100 {
            filters = format!("patient[{filters}]");
        }
        parse_path(&filters).unwrap();
    }

    #[test]
    fn pathologically_nested_queries_are_rejected_not_crashed() {
        // Past the budget the parser must return an error instead of
        // overflowing the stack. 100_000 parens would overflow a 2 MiB
        // thread stack without the depth budget.
        for depth in [300usize, 100_000] {
            let grouped = format!("{}patient{}", "(".repeat(depth), ")".repeat(depth));
            let err = parse_path(&grouped).unwrap_err();
            assert!(
                err.message.contains("nesting too deep"),
                "depth {depth}: unexpected error `{}`",
                err.message
            );

            let nots = format!(
                "patient[{}record{}]",
                "not(".repeat(depth),
                ")".repeat(depth)
            );
            let err = parse_path(&nots).unwrap_err();
            assert!(err.message.contains("nesting too deep"), "depth {depth}");
        }
    }

    #[test]
    fn depth_budget_survives_backtracking() {
        // `unary_pred` speculatively parses a predicate and backtracks to a
        // path reading; the depth counter must stay balanced so a long
        // *sequence* of such groups (no nesting) still parses.
        let q = format!("patient[{}]", vec!["(record)"; 300].join(" and "));
        parse_path(&q).unwrap();
        let seq = vec!["(patient)"; 300].join("/");
        parse_path(&seq).unwrap();
    }
}
