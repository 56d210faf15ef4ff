//! Streaming, zero-copy HTML tokenizer.
//!
//! Produces a flat token stream — start tags with attributes, end tags,
//! text, comments, doctype — from raw HTML. Tokens borrow `&str` slices
//! of the input; only a tag or attribute name that needs lowercasing is
//! copied. The tokenizer is lenient in the ways 2013 retail HTML demands:
//! unquoted and single-quoted attributes, boolean attributes, stray `<`
//! in text, `<script>`/`<style>` raw-text handling, and unterminated
//! constructs at end of input.

use std::borrow::Cow;

/// One HTML attribute (`name="value"`); value is raw (entities are
/// resolved by the parser, not the tokenizer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Lowercased attribute name.
    pub name: Cow<'a, str>,
    /// Attribute value; empty string for boolean attributes.
    pub value: &'a str,
}

/// A token of the HTML stream, borrowing from the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<!doctype html>`.
    Doctype(&'a str),
    /// `<tag attr=v ...>`; `self_closing` records an explicit `/>`.
    StartTag {
        /// Lowercased tag name.
        name: Cow<'a, str>,
        /// Attributes in source order.
        attrs: Vec<Attribute<'a>>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
    },
    /// `</tag>`.
    EndTag {
        /// Lowercased tag name.
        name: Cow<'a, str>,
    },
    /// A run of character data (entities unresolved).
    Text(&'a str),
    /// `<!-- ... -->`.
    Comment(&'a str),
}

/// Tokenizes an HTML string. Never fails: malformed input degrades to
/// text tokens, as in browsers.
#[must_use]
pub fn tokenize(input: &str) -> Vec<Token<'_>> {
    Tokenizer::new(input).collect()
}

/// The tokenizer as an iterator: each `next` scans just far enough to
/// produce one token, so a consumer never needs the whole stream at once.
///
/// A consumer that is done with a start tag's attribute list can hand it
/// back with `recycle`; the next start tag then reuses its allocation.
#[derive(Debug)]
pub(crate) struct Tokenizer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Set after a `<script>`/`<style>` start tag: its raw text comes
    /// next, then its close tag.
    raw_text_of: Option<&'static str>,
    spare_attrs: Vec<Attribute<'a>>,
}

impl<'a> Tokenizer<'a> {
    /// Starts tokenizing `input` from the beginning.
    #[must_use]
    pub(crate) fn new(input: &'a str) -> Self {
        Self::at(input, 0)
    }

    /// Starts tokenizing `input` at byte `pos`, a position this
    /// tokenizer reported ([`Tokenizer::pos`]) outside raw text.
    #[must_use]
    pub(crate) fn at(input: &'a str, pos: usize) -> Self {
        Tokenizer {
            input,
            bytes: input.as_bytes(),
            pos,
            raw_text_of: None,
            spare_attrs: Vec::new(),
        }
    }

    /// Where the next token starts.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Whether a `<script>`/`<style>` start tag's raw text comes next,
    /// which a tokenizer started with [`Tokenizer::at`] would not know.
    pub(crate) fn raw_text_pending(&self) -> bool {
        self.raw_text_of.is_some()
    }

    /// Returns a start tag's attribute list for reuse by the next one.
    pub(crate) fn recycle(&mut self, mut attrs: Vec<Attribute<'a>>) {
        attrs.clear();
        self.spare_attrs = attrs;
    }

    fn remaining(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn starts_with_ci(&self, prefix: &str) -> bool {
        let rest = &self.bytes[self.pos..];
        rest.len() >= prefix.len()
            && rest[..prefix.len()]
                .iter()
                .zip(prefix.as_bytes())
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }

    /// Consumes a text run up to the next plausible tag start.
    fn text_run(&mut self) -> Token<'a> {
        let start = self.pos;
        self.pos += 1;
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'<' && self.plausible_tag_at(self.pos) {
                break;
            }
            self.pos += 1;
        }
        Token::Text(&self.input[start..self.pos])
    }

    /// A `<` starts markup only if followed by a letter, `/`, `!` or `?`
    /// — otherwise it is literal text ("price < 10€").
    fn plausible_tag_at(&self, at: usize) -> bool {
        match self.bytes.get(at + 1) {
            Some(b) => b.is_ascii_alphabetic() || *b == b'/' || *b == b'!' || *b == b'?',
            None => false,
        }
    }

    /// Markup at a `<`; `None` for constructs that produce no token.
    fn tag_open(&mut self) -> Option<Token<'a>> {
        if !self.plausible_tag_at(self.pos) {
            return Some(self.text_run());
        }
        if self.starts_with_ci("<!--") {
            Some(self.comment())
        } else if self.starts_with_ci("<!doctype") {
            Some(self.doctype())
        } else if self.starts_with_ci("</") {
            self.end_tag()
        } else if self.starts_with_ci("<?") || self.starts_with_ci("<!") {
            // Processing instruction / bogus comment (e.g. <![CDATA[ ...
            // in HTML): skip to '>'.
            self.skip_until(b'>');
            self.pos = (self.pos + 1).min(self.bytes.len());
            None
        } else {
            Some(self.start_tag())
        }
    }

    fn comment(&mut self) -> Token<'a> {
        self.pos += 4; // "<!--"
        let start = self.pos;
        match self.remaining().find("-->") {
            Some(len) => {
                self.pos += len + 3;
                Token::Comment(&self.input[start..start + len])
            }
            None => {
                // Unterminated comment: swallow the rest.
                self.pos = self.bytes.len();
                Token::Comment(&self.input[start..])
            }
        }
    }

    fn doctype(&mut self) -> Token<'a> {
        self.pos += "<!doctype".len();
        let start = self.pos;
        self.skip_until(b'>');
        let body = self.input[start..self.pos].trim();
        self.pos = (self.pos + 1).min(self.bytes.len());
        Token::Doctype(body)
    }

    /// `</name ...>`; `None` for a nameless `</>`.
    fn end_tag(&mut self) -> Option<Token<'a>> {
        self.pos += 2; // "</"
        let name = self.tag_name();
        self.skip_until(b'>');
        self.pos = (self.pos + 1).min(self.bytes.len());
        (!name.is_empty()).then_some(Token::EndTag { name })
    }

    fn start_tag(&mut self) -> Token<'a> {
        self.pos += 1; // "<"
        let name = self.tag_name();
        let mut attrs = std::mem::take(&mut self.spare_attrs);
        let mut self_closing = false;
        loop {
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                None => break,
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.bytes.get(self.pos) == Some(&b'>') {
                        self.pos += 1;
                        self_closing = true;
                        break;
                    }
                }
                Some(_) => {
                    if let Some(attr) = self.attribute() {
                        attrs.push(attr);
                    }
                }
            }
        }
        // Raw-text elements: their contents come next as one text token,
        // untokenized, up to the matching close tag.
        self.raw_text_of = match &*name {
            "script" => Some("</script"),
            "style" => Some("</style"),
            _ => None,
        };
        Token::StartTag {
            name,
            attrs,
            self_closing,
        }
    }

    /// The raw text after `<script>`/`<style>` (`None` when empty), leaving
    /// the position at its close tag.
    fn raw_text(&mut self, close: &str) -> Option<Token<'a>> {
        let rest = self.remaining();
        let end = find_ci(rest, close).unwrap_or(rest.len());
        self.pos += end;
        (end > 0).then(|| Token::Text(&rest[..end]))
    }

    fn tag_name(&mut self) -> Cow<'a, str> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos].is_ascii_alphanumeric()
                || self.bytes[self.pos] == b'-'
                || self.bytes[self.pos] == b'_')
        {
            self.pos += 1;
        }
        lowercase(&self.input[start..self.pos])
    }

    fn attribute(&mut self) -> Option<Attribute<'a>> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && !matches!(
                self.bytes[self.pos],
                b'=' | b'>' | b'/' | b' ' | b'\t' | b'\n' | b'\r'
            )
        {
            self.pos += 1;
        }
        if self.pos == start {
            // Unparseable byte (e.g. stray quote): skip it to make progress.
            self.pos += 1;
            return None;
        }
        let name = lowercase(&self.input[start..self.pos]);
        self.skip_whitespace();
        if self.bytes.get(self.pos) != Some(&b'=') {
            return Some(Attribute { name, value: "" });
        }
        self.pos += 1; // '='
        self.skip_whitespace();
        let value = match self.bytes.get(self.pos) {
            Some(&q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let vstart = self.pos;
                self.skip_until(q);
                let v = &self.input[vstart..self.pos];
                self.pos = (self.pos + 1).min(self.bytes.len());
                v
            }
            _ => {
                let vstart = self.pos;
                while self.pos < self.bytes.len()
                    && !matches!(self.bytes[self.pos], b'>' | b' ' | b'\t' | b'\n' | b'\r')
                {
                    self.pos += 1;
                }
                &self.input[vstart..self.pos]
            }
        };
        Some(Attribute { name, value })
    }

    fn skip_whitespace(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, byte: u8) {
        while self.pos < self.bytes.len() && self.bytes[self.pos] != byte {
            self.pos += 1;
        }
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        if let Some(close) = self.raw_text_of.take() {
            if let Some(text) = self.raw_text(close) {
                return Some(text);
            }
        }
        while self.pos < self.bytes.len() {
            let token = if self.bytes[self.pos] == b'<' {
                self.tag_open()
            } else {
                Some(self.text_run())
            };
            if token.is_some() {
                return token;
            }
        }
        None
    }
}

/// `s` lowercased, borrowed unless it holds an ASCII uppercase letter.
fn lowercase(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Case-insensitive substring search (ASCII).
fn find_ci(haystack: &str, needle: &str) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    let hay = haystack.as_bytes();
    let nee = needle.as_bytes();
    (0..=hay.len() - nee.len()).find(|&i| {
        hay[i..i + nee.len()]
            .iter()
            .zip(nee)
            .all(|(a, b)| a.eq_ignore_ascii_case(b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn start<'a>(name: &'a str, attrs: &[(&'a str, &'a str)]) -> Token<'a> {
        Token::StartTag {
            name: name.into(),
            attrs: attrs
                .iter()
                .map(|(n, v)| Attribute {
                    name: (*n).into(),
                    value: v,
                })
                .collect(),
            self_closing: false,
        }
    }

    #[test]
    fn basic_document() {
        let toks = tokenize("<html><body>Hi</body></html>");
        assert_eq!(
            toks,
            vec![
                start("html", &[]),
                start("body", &[]),
                Token::Text("Hi"),
                Token::EndTag {
                    name: "body".into()
                },
                Token::EndTag {
                    name: "html".into()
                },
            ]
        );
    }

    #[test]
    fn attributes_quoted_unquoted_boolean() {
        let toks = tokenize(r#"<div id="p1" class='price main' data-x=5 hidden>"#);
        assert_eq!(
            toks,
            vec![start(
                "div",
                &[
                    ("id", "p1"),
                    ("class", "price main"),
                    ("data-x", "5"),
                    ("hidden", ""),
                ]
            )]
        );
    }

    #[test]
    fn self_closing_and_void() {
        let toks = tokenize("<br/><img src=x.png />");
        assert_eq!(
            toks,
            vec![
                Token::StartTag {
                    name: "br".into(),
                    attrs: vec![],
                    self_closing: true
                },
                Token::StartTag {
                    name: "img".into(),
                    attrs: vec![Attribute {
                        name: "src".into(),
                        value: "x.png"
                    }],
                    self_closing: true
                },
            ]
        );
    }

    #[test]
    fn doctype_and_comment() {
        let toks = tokenize("<!DOCTYPE html><!-- tracker --><p>x</p>");
        assert_eq!(toks[0], Token::Doctype("html"));
        assert_eq!(toks[1], Token::Comment(" tracker "));
    }

    #[test]
    fn tag_names_lowercased() {
        let toks = tokenize("<DIV CLASS=Price></DIV>");
        assert_eq!(toks[0], start("div", &[("class", "Price")]));
        assert_eq!(toks[1], Token::EndTag { name: "div".into() });
    }

    #[test]
    fn stray_lt_is_text() {
        let toks = tokenize("price < 10 eur");
        assert_eq!(toks, vec![Token::Text("price < 10 eur")]);
    }

    #[test]
    fn script_contents_not_tokenized() {
        let html = r#"<script>if (a < b) { track("<div>"); }</script><p>after</p>"#;
        let toks = tokenize(html);
        // raw text is emitted before the script start tag marker
        assert!(toks
            .iter()
            .any(|t| matches!(t, Token::Text(s) if s.contains("a < b") && s.contains("<div>"))));
        assert!(toks
            .iter()
            .any(|t| matches!(t, Token::StartTag { name, .. } if name == "p")));
    }

    #[test]
    fn unterminated_comment_consumed() {
        let toks = tokenize("<!-- never ends");
        assert_eq!(toks, vec![Token::Comment(" never ends")]);
    }

    #[test]
    fn unterminated_tag_at_eof() {
        let toks = tokenize("<div class=");
        assert_eq!(toks.len(), 1);
        assert!(matches!(&toks[0], Token::StartTag { name, .. } if name == "div"));
    }

    #[test]
    fn entities_left_unresolved() {
        let toks = tokenize("<span>&euro;12</span>");
        assert_eq!(toks[1], Token::Text("&euro;12"));
    }

    #[test]
    fn processing_instruction_skipped() {
        let toks = tokenize("<?xml version=\"1.0\"?><p>x</p>");
        assert!(matches!(&toks[0], Token::StartTag { name, .. } if name == "p"));
    }

    #[test]
    fn names_borrow_unless_lowercased() {
        let toks = tokenize("<div CLASS=a data-x=1></DIV>");
        let Token::StartTag { name, attrs, .. } = &toks[0] else {
            panic!("start tag expected: {toks:?}");
        };
        assert!(matches!(name, Cow::Borrowed("div")));
        assert!(matches!(&attrs[0].name, Cow::Owned(n) if n == "class"));
        assert!(matches!(attrs[1].name, Cow::Borrowed("data-x")));
        assert!(matches!(&toks[1], Token::EndTag { name: Cow::Owned(n) } if n == "div"));
    }

    #[test]
    fn recycled_attribute_lists_come_back_empty() {
        let mut tokens = Tokenizer::new("<a href=x><b id=y class=z>");
        let Some(Token::StartTag { attrs, .. }) = tokens.next() else {
            panic!("start tag expected");
        };
        tokens.recycle(attrs);
        let Some(Token::StartTag { attrs, .. }) = tokens.next() else {
            panic!("start tag expected");
        };
        let values: Vec<&str> = attrs.iter().map(|a| a.value).collect();
        assert_eq!(values, ["y", "z"]);
        assert!(tokens.next().is_none());
    }

    #[test]
    fn find_ci_works() {
        assert_eq!(find_ci("abcDEFg", "def"), Some(3));
        assert_eq!(find_ci("abc", "zz"), None);
        assert_eq!(find_ci("ab", "abc"), None);
        assert_eq!(find_ci("x</SCRIPT>", "</script"), Some(1));
    }

    proptest! {
        #[test]
        fn prop_tokenizer_never_panics(s in "\\PC{0,256}") {
            let _ = tokenize(&s);
        }

        #[test]
        fn prop_tokenizer_terminates_on_angle_soup(s in "[<>a-z/!\"= -]{0,256}") {
            let _ = tokenize(&s);
        }

        #[test]
        fn prop_text_round_trips_when_no_markup(s in "[a-zA-Z0-9 .,]{1,64}") {
            let toks = tokenize(&s);
            prop_assert_eq!(toks, vec![Token::Text(&s)]);
        }
    }
}
