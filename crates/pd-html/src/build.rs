//! Page builders: one template definition, two outputs.
//!
//! The synthetic retailer templates (`pd-web`) are written once against
//! the [`HtmlSink`] trait — `open` descends, `close` ascends, `text`,
//! `leaf`, `comment` and `doctype` append. Two sinks implement it:
//!
//! * [`DocBuilder`] builds a [`Document`],
//! * [`HtmlWriter`] writes the HTML text straight into one `String`,
//!   byte for byte what [`Document::to_html`] would serialize from the
//!   built document — the server's path, which never needs the tree.

use crate::dom::{
    is_void, write_comment, write_doctype, write_start_tag, Document, NodeData, NodeId,
};
use crate::escape::{escape_into, unescape};

/// The operations a page template is written against.
///
/// Tag names are lowercased and attribute values are entity-decoded, as
/// [`Document::append_element`] does; text, comments and doctypes are
/// taken verbatim.
pub trait HtmlSink {
    /// Appends a doctype at the current position.
    fn doctype(&mut self, d: &str);

    /// Opens an element and descends into it.
    fn open(&mut self, tag: &str, attrs: &[(&str, &str)]);

    /// Closes the current element.
    ///
    /// # Panics
    ///
    /// Panics when no element is open — a builder bug in the template.
    fn close(&mut self);

    /// Appends a text node at the current position.
    fn text(&mut self, t: &str);

    /// Appends a comment.
    fn comment(&mut self, c: &str);

    /// Appends a childless element (e.g. `<img>`, `<meta>`).
    fn leaf(&mut self, tag: &str, attrs: &[(&str, &str)]) {
        self.open(tag, attrs);
        self.close();
    }

    /// Appends an element containing a single text node — the most common
    /// template pattern (`<span class=price>$9.99</span>`).
    fn text_element(&mut self, tag: &str, attrs: &[(&str, &str)], text: &str) {
        self.open(tag, attrs);
        self.text(text);
        self.close();
    }
}

/// Writes a full page into `sink`: doctype +
/// `<html><head>…</head><body>…</body></html>`, with `head` and `body`
/// invoked inside their elements.
pub fn write_page<S: HtmlSink>(sink: &mut S, head: impl FnOnce(&mut S), body: impl FnOnce(&mut S)) {
    sink.doctype("html");
    sink.open("html", &[]);
    sink.open("head", &[]);
    head(sink);
    sink.close();
    sink.open("body", &[]);
    body(sink);
    sink.close();
    sink.close();
}

/// A cursor-style builder over a [`Document`].
///
/// # Examples
///
/// ```
/// use pd_html::{DocBuilder, HtmlSink};
///
/// let doc = DocBuilder::page(|b| {
///     b.open("div", &[("id", "product")]);
///     b.open("span", &[("class", "price")]);
///     b.text("$9.99");
///     b.close();
///     b.close();
/// });
/// assert!(doc.to_html(pd_html::NodeId::ROOT).contains("$9.99"));
/// ```
#[derive(Debug)]
pub struct DocBuilder {
    doc: Document,
    stack: Vec<NodeId>,
}

impl DocBuilder {
    /// Starts an empty builder positioned at the root.
    #[must_use]
    pub fn new() -> Self {
        DocBuilder {
            doc: Document::new(),
            stack: vec![NodeId::ROOT],
        }
    }

    /// Builds a full page: doctype + `<html><head></head><body>…</body></html>`,
    /// with `f` invoked inside `<body>`.
    #[must_use]
    pub fn page(f: impl FnOnce(&mut DocBuilder)) -> Document {
        Self::page_with_head(|_| {}, f)
    }

    /// Like [`DocBuilder::page`] but lets the caller populate `<head>` too.
    #[must_use]
    pub fn page_with_head(
        head: impl FnOnce(&mut DocBuilder),
        body: impl FnOnce(&mut DocBuilder),
    ) -> Document {
        let mut b = DocBuilder::new();
        write_page(&mut b, head, body);
        b.finish()
    }

    /// Id of the element currently being built (the top of the stack).
    #[must_use]
    pub fn current(&self) -> NodeId {
        self.top()
    }

    /// Finishes and returns the document.
    ///
    /// # Panics
    ///
    /// Panics if elements remain open — templates must be balanced.
    #[must_use]
    pub fn finish(self) -> Document {
        assert_eq!(
            self.stack.len(),
            1,
            "unbalanced builder: {} elements left open",
            self.stack.len() - 1
        );
        self.doc
    }

    fn top(&self) -> NodeId {
        *self.stack.last().expect("stack never empty")
    }
}

impl Default for DocBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl HtmlSink for DocBuilder {
    fn doctype(&mut self, d: &str) {
        let top = self.top();
        self.doc.append(top, NodeData::Doctype(d));
    }

    fn open(&mut self, tag: &str, attrs: &[(&str, &str)]) {
        let top = self.top();
        let id = self.doc.append_element(top, tag, attrs.iter().copied());
        self.stack.push(id);
    }

    fn close(&mut self) {
        assert!(self.stack.len() > 1, "close() without matching open()");
        self.stack.pop();
    }

    fn text(&mut self, t: &str) {
        let top = self.top();
        self.doc.append(top, NodeData::Text(t));
    }

    fn comment(&mut self, c: &str) {
        let top = self.top();
        self.doc.append(top, NodeData::Comment(c));
    }
}

/// A sink that writes HTML text directly: the output equals
/// `to_html(NodeId::ROOT)` of the document a [`DocBuilder`] would build
/// from the same calls — escaped text and values, bare empty-valued
/// attributes, void elements without content or close tag.
///
/// # Examples
///
/// ```
/// use pd_html::{DocBuilder, HtmlSink, HtmlWriter, NodeId};
///
/// fn card<S: HtmlSink>(s: &mut S) {
///     s.open("div", &[("class", "card"), ("hidden", "")]);
///     s.text_element("b", &[], "Tom & Jerry");
///     s.leaf("img", &[("src", "a.png")]);
///     s.close();
/// }
/// let mut writer = HtmlWriter::with_capacity(64);
/// card(&mut writer);
/// let mut builder = DocBuilder::new();
/// card(&mut builder);
/// assert_eq!(writer.finish(), builder.finish().to_html(NodeId::ROOT));
/// ```
#[derive(Debug, Default)]
pub struct HtmlWriter {
    out: String,
    /// Byte range of each open element's tag name within `out`.
    open: Vec<(usize, usize)>,
    /// Depth of the open void element whose content is being dropped
    /// (serialization never writes a void element's children).
    muted_at: Option<usize>,
}

impl HtmlWriter {
    /// An empty writer whose output buffer starts with `bytes` capacity.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        HtmlWriter {
            out: String::with_capacity(bytes),
            open: Vec::with_capacity(16),
            muted_at: None,
        }
    }

    /// Finishes and returns the HTML.
    ///
    /// # Panics
    ///
    /// Panics if elements remain open — templates must be balanced.
    #[must_use]
    pub fn finish(self) -> String {
        assert!(
            self.open.is_empty(),
            "unbalanced builder: {} elements left open",
            self.open.len()
        );
        self.out
    }

    fn muted(&self) -> bool {
        self.muted_at.is_some()
    }
}

impl HtmlSink for HtmlWriter {
    fn doctype(&mut self, d: &str) {
        if !self.muted() {
            write_doctype(&mut self.out, d);
        }
    }

    fn open(&mut self, tag: &str, attrs: &[(&str, &str)]) {
        if self.muted() {
            self.open.push((0, 0));
            return;
        }
        let start = self.out.len() + 1; // after '<'
        let end = start + tag.len();
        write_start_tag(
            &mut self.out,
            tag,
            attrs.iter().map(|&(name, value)| (name, unescape(value))),
        );
        self.out[start..end].make_ascii_lowercase();
        if is_void(&self.out[start..end]) {
            self.muted_at = Some(self.open.len());
        }
        self.open.push((start, end));
    }

    fn close(&mut self) {
        let (start, end) = self.open.pop().expect("close() without matching open()");
        if self.muted_at == Some(self.open.len()) {
            self.muted_at = None;
        } else if !self.muted() {
            self.out.push_str("</");
            self.out.extend_from_within(start..end);
            self.out.push('>');
        }
    }

    fn text(&mut self, t: &str) {
        if !self.muted() {
            escape_into(t, &mut self.out);
        }
    }

    fn comment(&mut self, c: &str) {
        if !self.muted() {
            write_comment(&mut self.out, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::selector::Selector;

    #[test]
    fn builds_and_serializes() {
        let doc = DocBuilder::page(|b| {
            b.text_element("h1", &[], "Title");
            b.open("div", &[("class", "x")]);
            b.leaf("img", &[("src", "p.png")]);
            b.close();
        });
        let html = doc.to_html(NodeId::ROOT);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<h1>Title</h1>"));
        assert!(html.contains("<img src=\"p.png\">"));
    }

    #[test]
    fn built_document_round_trips_through_parser() {
        let doc = DocBuilder::page(|b| {
            b.open("div", &[("id", "product")]);
            b.text_element("span", &[("class", "price")], "$1,299.00");
            b.close();
        });
        let html = doc.to_html(NodeId::ROOT);
        let reparsed = parse(&html);
        let hit = Selector::parse("#product > span.price")
            .unwrap()
            .query_first(&reparsed)
            .unwrap();
        assert_eq!(reparsed.text_content(hit), "$1,299.00");
    }

    #[test]
    fn page_with_head_populates_head() {
        let doc = DocBuilder::page_with_head(
            |h| {
                h.text_element("title", &[], "Shop");
                h.leaf("meta", &[("charset", "utf-8")]);
            },
            |b| {
                b.text_element("p", &[], "body");
            },
        );
        let html = doc.to_html(NodeId::ROOT);
        assert!(html.contains("<title>Shop</title>"));
        assert!(html.contains("<meta charset=\"utf-8\">"));
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_builder_panics() {
        let mut b = DocBuilder::new();
        b.open("div", &[]);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "close() without matching open()")]
    fn close_at_root_panics() {
        let mut b = DocBuilder::new();
        b.close();
    }

    #[test]
    fn current_tracks_position() {
        let mut b = DocBuilder::new();
        let before = b.current();
        b.open("div", &[]);
        assert_ne!(b.current(), before);
        b.close();
        assert_eq!(b.current(), before);
    }

    /// Drives both sinks with the same calls and compares the output.
    fn both(calls: impl Fn(&mut dyn FnMut(Call<'_>))) {
        let mut builder = DocBuilder::new();
        calls(&mut |c| c.apply(&mut builder));
        let mut writer = HtmlWriter::default();
        calls(&mut |c| c.apply(&mut writer));
        assert_eq!(writer.finish(), builder.finish().to_html(NodeId::ROOT));
    }

    enum Call<'a> {
        Open(&'a str, &'a [(&'a str, &'a str)]),
        Close,
        Text(&'a str),
        Comment(&'a str),
        Doctype(&'a str),
    }

    impl Call<'_> {
        fn apply(&self, sink: &mut impl HtmlSink) {
            match *self {
                Call::Open(tag, attrs) => sink.open(tag, attrs),
                Call::Close => sink.close(),
                Call::Text(t) => sink.text(t),
                Call::Comment(c) => sink.comment(c),
                Call::Doctype(d) => sink.doctype(d),
            }
        }
    }

    #[test]
    fn writer_matches_builder_serialization() {
        both(|call| {
            call(Call::Doctype("html"));
            call(Call::Open("DIV", &[("Class", "a &amp; b"), ("hidden", "")]));
            call(Call::Text("1 < 2 & \"3\" 'x' \u{a0}€"));
            call(Call::Comment(" c & <d> "));
            call(Call::Open("img", &[("alt", "\"q\"")]));
            // Content inside a void element is never serialized.
            call(Call::Text("dropped"));
            call(Call::Open("b", &[]));
            call(Call::Close);
            call(Call::Close);
            call(Call::Open("p", &[("title", "&")]));
            call(Call::Close);
            call(Call::Close);
        });
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_writer_panics() {
        let mut w = HtmlWriter::default();
        w.open("div", &[]);
        let _ = w.finish();
    }
}
