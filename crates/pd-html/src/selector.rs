//! CSS-like selector engine.
//!
//! Supports the selector grammar the extraction layer needs:
//!
//! ```text
//! selector   := compound ( combinator compound )*
//! combinator := ">" (child) | whitespace (descendant)
//! compound   := [ tag ] simple*
//! simple     := "#" ident | "." ident | "[" ident ("=" value)? "]"
//!              | ":nth-of-type(" n ")"
//! ```
//!
//! `:nth-of-type` is 1-based like CSS. Matching walks right-to-left, the
//! standard engine strategy.

use crate::dom::{Document, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One simple condition within a compound selector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum Simple {
    Tag(String),
    Id(String),
    Class(String),
    AttrExists(String),
    AttrEq(String, String),
    NthOfType(usize),
}

/// A compound selector (all conditions must hold on one element).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Compound {
    simples: Vec<Simple>,
}

/// How a compound relates to the one on its right.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Combinator {
    Descendant,
    Child,
}

/// A parsed selector.
///
/// # Examples
///
/// ```
/// use pd_html::{parse, Selector};
///
/// let doc = parse(r#"<div id="main"><span class="price">$9</span></div>"#);
/// let sel = Selector::parse("#main > span.price").unwrap();
/// assert!(sel.query_first(&doc).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Selector {
    /// Compounds left-to-right; `combinators[i]` links `compounds[i]` to
    /// `compounds[i+1]`.
    compounds: Vec<Compound>,
    combinators: Vec<Combinator>,
    source: String,
}

/// Error produced for a malformed selector string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the source string.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "selector parse error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Selector {
    /// Parses a selector string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on empty input, dangling combinators, or
    /// malformed simple selectors.
    pub fn parse(input: &str) -> Result<Self, ParseError> {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
        .parse()
    }

    /// The source string this selector was parsed from.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// All elements matching the selector, in document order.
    #[must_use]
    pub fn query_all(&self, doc: &Document) -> Vec<NodeId> {
        doc.elements().filter(|&el| self.matches(doc, el)).collect()
    }

    /// First matching element in document order.
    #[must_use]
    pub fn query_first(&self, doc: &Document) -> Option<NodeId> {
        doc.elements().find(|&el| self.matches(doc, el))
    }

    /// Whether `el` matches this selector (right-to-left walk).
    #[must_use]
    pub fn matches(&self, doc: &Document, el: NodeId) -> bool {
        let last = self.compounds.len() - 1;
        if !compound_matches(doc, el, &self.compounds[last]) {
            return false;
        }
        self.match_ancestors(doc, el, last)
    }

    fn match_ancestors(&self, doc: &Document, el: NodeId, idx: usize) -> bool {
        if idx == 0 {
            return true;
        }
        let comb = self.combinators[idx - 1];
        let target = &self.compounds[idx - 1];
        match comb {
            Combinator::Child => {
                let Some(parent) = doc.parent(el) else {
                    return false;
                };
                compound_matches(doc, parent, target) && self.match_ancestors(doc, parent, idx - 1)
            }
            Combinator::Descendant => {
                let mut cur = doc.parent(el);
                while let Some(p) = cur {
                    if compound_matches(doc, p, target) && self.match_ancestors(doc, p, idx - 1) {
                        return true;
                    }
                    cur = doc.parent(p);
                }
                false
            }
        }
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

fn compound_matches(doc: &Document, el: NodeId, compound: &Compound) -> bool {
    let Some(tag) = doc.tag(el) else {
        return false;
    };
    compound.simples.iter().all(|s| match s {
        Simple::Tag(t) => t == tag,
        Simple::Id(id) => doc.element_id(el) == Some(id.as_str()),
        Simple::Class(c) => doc.has_class(el, c),
        Simple::AttrExists(a) => doc.attr(el, a).is_some(),
        Simple::AttrEq(a, v) => doc.attr(el, a) == Some(v.as_str()),
        Simple::NthOfType(n) => doc.same_tag_sibling_index(el) + 1 == *n,
    })
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(mut self) -> Result<Selector, ParseError> {
        let mut compounds = Vec::new();
        let mut combinators = Vec::new();
        self.skip_ws();
        if self.pos >= self.bytes.len() {
            return Err(self.err("empty selector"));
        }
        loop {
            compounds.push(self.compound()?);
            let had_ws = self.skip_ws();
            if self.pos >= self.bytes.len() {
                break;
            }
            if self.bytes[self.pos] == b'>' {
                self.pos += 1;
                self.skip_ws();
                combinators.push(Combinator::Child);
            } else if had_ws {
                combinators.push(Combinator::Descendant);
            } else {
                return Err(self.err("unexpected character"));
            }
            if self.pos >= self.bytes.len() {
                return Err(self.err("dangling combinator"));
            }
        }
        Ok(Selector {
            compounds,
            combinators,
            source: self.input.to_owned(),
        })
    }

    fn compound(&mut self) -> Result<Compound, ParseError> {
        let mut simples = Vec::new();
        let mut universal = false;
        if self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'*')
        {
            if self.bytes[self.pos] == b'*' {
                self.pos += 1; // universal selector: matches any element
                universal = true;
            } else {
                let tag = self.ident();
                simples.push(Simple::Tag(tag.to_ascii_lowercase()));
            }
        }
        loop {
            match self.bytes.get(self.pos) {
                Some(b'#') => {
                    self.pos += 1;
                    let id = self.ident();
                    if id.is_empty() {
                        return Err(self.err("empty #id"));
                    }
                    simples.push(Simple::Id(id));
                }
                Some(b'.') => {
                    self.pos += 1;
                    let class = self.ident();
                    if class.is_empty() {
                        return Err(self.err("empty .class"));
                    }
                    simples.push(Simple::Class(class));
                }
                Some(b'[') => {
                    self.pos += 1;
                    let name = self.ident();
                    if name.is_empty() {
                        return Err(self.err("empty attribute name"));
                    }
                    if self.bytes.get(self.pos) == Some(&b'=') {
                        self.pos += 1;
                        let value = self.attr_value();
                        if self.bytes.get(self.pos) != Some(&b']') {
                            return Err(self.err("unterminated attribute selector"));
                        }
                        self.pos += 1;
                        simples.push(Simple::AttrEq(name, value));
                    } else if self.bytes.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        simples.push(Simple::AttrExists(name));
                    } else {
                        return Err(self.err("unterminated attribute selector"));
                    }
                }
                Some(b':') => {
                    self.pos += 1;
                    let name = self.ident();
                    if name != "nth-of-type" {
                        return Err(self.err("unsupported pseudo-class"));
                    }
                    if self.bytes.get(self.pos) != Some(&b'(') {
                        return Err(self.err("expected '('"));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                        self.pos += 1;
                    }
                    let n: usize = self.input[start..self.pos]
                        .parse()
                        .map_err(|_| self.err("bad nth-of-type index"))?;
                    if n == 0 {
                        return Err(self.err("nth-of-type is 1-based"));
                    }
                    if self.bytes.get(self.pos) != Some(&b')') {
                        return Err(self.err("expected ')'"));
                    }
                    self.pos += 1;
                    simples.push(Simple::NthOfType(n));
                }
                _ => break,
            }
        }
        if simples.is_empty() && !universal {
            return Err(self.err("expected a simple selector"));
        }
        Ok(Compound { simples })
    }

    fn ident(&mut self) -> String {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'-' || *b == b'_')
        {
            self.pos += 1;
        }
        self.input[start..self.pos].to_owned()
    }

    fn attr_value(&mut self) -> String {
        if self.bytes.get(self.pos) == Some(&b'"') {
            self.pos += 1;
            let start = self.pos;
            while self.pos < self.bytes.len() && self.bytes[self.pos] != b'"' {
                self.pos += 1;
            }
            let v = self.input[start..self.pos].to_owned();
            self.pos = (self.pos + 1).min(self.bytes.len());
            v
        } else {
            let start = self.pos;
            while self.pos < self.bytes.len() && self.bytes[self.pos] != b']' {
                self.pos += 1;
            }
            self.input[start..self.pos].to_owned()
        }
    }

    fn skip_ws(&mut self) -> bool {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
        self.pos > start
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            at: self.pos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use proptest::prelude::*;

    const PAGE: &str = r#"
        <html><body>
          <div id="product" class="card main">
            <h1>Camera X100</h1>
            <span class="price" data-currency="USD">$1,299.00</span>
          </div>
          <div class="recommended">
            <div class="card"><span class="price">$24.99</span></div>
            <div class="card"><span class="price">$89.00</span></div>
          </div>
        </body></html>"#;

    #[test]
    fn tag_selector() {
        let doc = parse(PAGE);
        let sel = Selector::parse("span").unwrap();
        assert_eq!(sel.query_all(&doc).len(), 3);
    }

    #[test]
    fn id_selector() {
        let doc = parse(PAGE);
        let sel = Selector::parse("#product").unwrap();
        let hit = sel.query_first(&doc).unwrap();
        assert_eq!(doc.tag(hit), Some("div"));
    }

    #[test]
    fn class_selector_distinguishes_product_from_recommended() {
        let doc = parse(PAGE);
        // This is the paper's challenge: "price" alone matches 3 nodes...
        assert_eq!(Selector::parse(".price").unwrap().query_all(&doc).len(), 3);
        // ...but the highlight-derived selector is unambiguous.
        let sel = Selector::parse("#product > span.price").unwrap();
        let hits = sel.query_all(&doc);
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.text_content(hits[0]), "$1,299.00");
    }

    #[test]
    fn descendant_vs_child() {
        let doc = parse(PAGE);
        assert_eq!(
            Selector::parse("body span.price")
                .unwrap()
                .query_all(&doc)
                .len(),
            3
        );
        assert_eq!(
            Selector::parse("body > span.price")
                .unwrap()
                .query_all(&doc)
                .len(),
            0
        );
    }

    #[test]
    fn attribute_selectors() {
        let doc = parse(PAGE);
        assert_eq!(
            Selector::parse("[data-currency]")
                .unwrap()
                .query_all(&doc)
                .len(),
            1
        );
        assert_eq!(
            Selector::parse("span[data-currency=USD]")
                .unwrap()
                .query_all(&doc)
                .len(),
            1
        );
        assert_eq!(
            Selector::parse("span[data-currency=\"USD\"]")
                .unwrap()
                .query_all(&doc)
                .len(),
            1
        );
        assert_eq!(
            Selector::parse("span[data-currency=EUR]")
                .unwrap()
                .query_all(&doc)
                .len(),
            0
        );
    }

    #[test]
    fn nth_of_type() {
        let doc = parse(PAGE);
        let sel = Selector::parse(".recommended > div:nth-of-type(2) .price").unwrap();
        let hit = sel.query_first(&doc).unwrap();
        assert_eq!(doc.text_content(hit), "$89.00");
    }

    #[test]
    fn compound_multiple_classes() {
        let doc = parse(PAGE);
        assert_eq!(
            Selector::parse("div.card.main")
                .unwrap()
                .query_all(&doc)
                .len(),
            1
        );
    }

    #[test]
    fn universal_selector() {
        let doc = parse("<div><p>a</p></div>");
        let sel = Selector::parse("div > *").unwrap();
        assert_eq!(sel.query_all(&doc).len(), 1);
    }

    #[test]
    fn parse_errors() {
        assert!(Selector::parse("").is_err());
        assert!(Selector::parse("  ").is_err());
        assert!(Selector::parse("div >").is_err());
        assert!(Selector::parse("div ]").is_err());
        assert!(Selector::parse(".").is_err());
        assert!(Selector::parse("#").is_err());
        assert!(Selector::parse("[").is_err());
        assert!(Selector::parse("[a").is_err());
        assert!(Selector::parse("p:hover").is_err());
        assert!(Selector::parse("p:nth-of-type(0)").is_err());
        assert!(Selector::parse("p:nth-of-type(x)").is_err());
    }

    #[test]
    fn display_round_trips_source() {
        let s = Selector::parse("#a > .b c[d=e]").unwrap();
        assert_eq!(s.to_string(), "#a > .b c[d=e]");
        assert_eq!(s.source(), "#a > .b c[d=e]");
    }

    #[test]
    fn tag_match_is_case_insensitive_on_selector_side() {
        let doc = parse("<DIV>x</DIV>");
        assert!(Selector::parse("DIV").unwrap().query_first(&doc).is_some());
    }

    proptest! {
        #[test]
        fn prop_selector_parse_never_panics(s in "\\PC{0,64}") {
            let _ = Selector::parse(&s);
        }

        #[test]
        fn prop_query_never_panics(sel in "[a-z#.> \\[\\]=*:()0-9]{1,32}", html in "[a-z<>/ ]{0,128}") {
            if let Ok(s) = Selector::parse(&sel) {
                let doc = parse(&html);
                let _ = s.query_all(&doc);
            }
        }
    }
}
