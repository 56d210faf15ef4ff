//! Page builders: one template definition, two outputs.
//!
//! The synthetic retailer templates (`pd-web`) are written once against
//! the [`HtmlSink`] trait — `open` descends, `close` ascends, `text`,
//! `leaf`, `comment` and `doctype` append. Two sinks implement it:
//!
//! * [`DocBuilder`] builds a [`Document`],
//! * [`HtmlWriter`] writes the HTML text straight into one `String`,
//!   byte for byte what [`Document::to_html`] would serialize from the
//!   built document, without building the tree.
//!
//! A third sink, [`SkeletonWriter`], runs a template once with
//! [`placeholder`]s for the strings that change per page and records
//! where each lands: the resulting [`Skeleton`] then produces a page by
//! splicing values into its fixed runs, with the same escaping the
//! writer applies — the server's path.

use crate::dom::{
    is_void, write_comment, write_doctype, write_start_tag, Document, NodeData, NodeId,
};
use crate::escape::{escape_into, unescape};

/// First code point of the placeholder range (Unicode private use).
const PLACEHOLDER_BASE: u32 = 0xE000;
/// Number of distinct placeholders, i.e. slots per skeleton.
const MAX_SLOTS: usize = 64;

/// The placeholder a template is rendered with for slot `slot` of a
/// [`Skeleton`]: one private-use character, which escaping and
/// entity-decoding both leave unchanged.
///
/// # Panics
///
/// Panics if `slot` is 64 or more.
#[must_use]
pub fn placeholder(slot: usize) -> char {
    assert!(slot < MAX_SLOTS, "slot {slot} out of range");
    char::from_u32(PLACEHOLDER_BASE + slot as u32).expect("private-use code point")
}

/// The slot `c` stands for, if it is a placeholder.
fn slot_of(c: char) -> Option<usize> {
    let slot = (c as u32).checked_sub(PLACEHOLDER_BASE)? as usize;
    (slot < MAX_SLOTS).then_some(slot)
}

/// True when `s` contains a placeholder character — such a string
/// cannot be a fixed part of a skeleton.
#[must_use]
pub fn has_placeholder(s: &str) -> bool {
    s.chars().any(|c| slot_of(c).is_some())
}

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

/// How a slot's value is written where it is spliced in.
#[derive(Debug, Clone, Copy)]
enum Context {
    /// Inside a text node: escaped.
    Text,
    /// A whole attribute value: entity-decoded, then escaped and quoted
    /// as `="…"` — or nothing, leaving a bare name, when it decodes to
    /// the empty string.
    Attr,
}

/// One place in a skeleton's fixed HTML where a slot's value goes.
#[derive(Debug, Clone, Copy)]
struct Cut {
    /// Byte offset into the skeleton's fixed HTML.
    at: usize,
    slot: usize,
    context: Context,
}

/// A page rendered once with its per-page strings left out: the fixed
/// HTML and, in order, the cuts where [`Skeleton::splice`] writes each
/// slot's value.
#[derive(Debug, Clone)]
pub struct Skeleton {
    html: String,
    cuts: Vec<Cut>,
}

impl Skeleton {
    /// Bytes of fixed HTML (the page length with every slot empty,
    /// attribute quoting aside).
    #[must_use]
    pub fn fixed_len(&self) -> usize {
        self.html.len()
    }

    /// The slots in the order their values are written; a slot used
    /// twice appears twice.
    pub fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.cuts.iter().map(|c| c.slot)
    }

    /// Appends the page to `out`: the fixed runs, and at each cut the
    /// value `fill(slot, out)` appends, escaped for where it lands —
    /// what [`HtmlWriter`] writes for the template rendered with those
    /// values in place of the placeholders. `fill` appends raw
    /// (unescaped) text, as a template would pass it to its sink.
    pub fn splice(&self, out: &mut String, mut fill: impl FnMut(usize, &mut String)) {
        let mut from = 0;
        for cut in &self.cuts {
            out.push_str(&self.html[from..cut.at]);
            from = cut.at;
            match cut.context {
                Context::Text => {
                    let start = out.len();
                    fill(cut.slot, out);
                    escape_tail(out, start, false);
                }
                Context::Attr => {
                    out.push_str("=\"");
                    let start = out.len();
                    fill(cut.slot, out);
                    escape_tail(out, start, true);
                    if out.len() == start {
                        out.truncate(start - 2);
                    } else {
                        out.push('"');
                    }
                }
            }
        }
        out.push_str(&self.html[from..]);
    }
}

/// Escapes `out[start..]` in place (entity-decoding it first when
/// `decode`), allocating only when it holds a character to escape.
fn escape_tail(out: &mut String, start: usize, decode: bool) {
    if out[start..].contains(['&', '<', '>', '"', '\'']) {
        let raw = out.split_off(start);
        if decode {
            escape_into(&unescape(&raw), out);
        } else {
            escape_into(&raw, out);
        }
    }
}

/// A sink that records a [`Skeleton`]: it writes through an
/// [`HtmlWriter`], and each [`placeholder`] it meets in a text or as a
/// whole attribute value becomes a cut instead of output.
///
/// Placeholders are recognized only there; the template's fixed strings
/// (tag and attribute names, comments, other text) must not contain
/// any (see [`has_placeholder`]).
///
/// # Examples
///
/// ```
/// use pd_html::{placeholder, HtmlSink, HtmlWriter, SkeletonWriter};
///
/// fn card<S: HtmlSink>(s: &mut S, name: &str) {
///     s.open("div", &[("title", name)]);
///     s.text_element("b", &[], &format!("{name}!"));
///     s.close();
/// }
/// let mut recorder = SkeletonWriter::with_capacity(64);
/// card(&mut recorder, &placeholder(0).to_string());
/// let skeleton = recorder.finish();
///
/// let mut page = String::new();
/// skeleton.splice(&mut page, |_, out| out.push_str("Tom & Jerry"));
/// let mut writer = HtmlWriter::with_capacity(64);
/// card(&mut writer, "Tom & Jerry");
/// assert_eq!(page, writer.finish());
/// ```
#[derive(Debug, Default)]
pub struct SkeletonWriter {
    writer: HtmlWriter,
    cuts: Vec<Cut>,
}

impl SkeletonWriter {
    /// An empty recorder whose HTML buffer starts with `bytes` capacity.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        SkeletonWriter {
            writer: HtmlWriter::with_capacity(bytes),
            cuts: Vec::new(),
        }
    }

    /// Finishes and returns the skeleton.
    ///
    /// # Panics
    ///
    /// Panics if elements remain open — templates must be balanced.
    #[must_use]
    pub fn finish(self) -> Skeleton {
        Skeleton {
            html: self.writer.finish(),
            cuts: self.cuts,
        }
    }

    fn cut(&mut self, slot: usize, context: Context) {
        self.cuts.push(Cut {
            at: self.writer.out.len(),
            slot,
            context,
        });
    }
}

impl HtmlSink for SkeletonWriter {
    fn doctype(&mut self, d: &str) {
        self.writer.doctype(d);
    }

    /// # Panics
    ///
    /// Panics if an attribute value holds a placeholder among other
    /// characters — only whole values are slots.
    fn open(&mut self, tag: &str, attrs: &[(&str, &str)]) {
        let start = self.writer.out.len();
        self.writer.open(tag, attrs);
        let mut from = start;
        for &(_, value) in attrs {
            if !has_placeholder(value) {
                continue;
            }
            let mut chars = value.chars();
            let slot = match (chars.next().and_then(slot_of), chars.next()) {
                (Some(slot), None) => slot,
                _ => panic!("a placeholder must be a whole attribute value: {value:?}"),
            };
            // Written as `="<placeholder>"`; cut it out (none is written
            // when the element's content is muted).
            let quoted = format!("=\"{value}\"");
            let Some(at) = self.writer.out[from..].find(&quoted).map(|at| from + at) else {
                continue;
            };
            self.writer.out.replace_range(at..at + quoted.len(), "");
            self.cuts.push(Cut {
                at,
                slot,
                context: Context::Attr,
            });
            from = at;
        }
    }

    fn close(&mut self) {
        self.writer.close();
    }

    fn text(&mut self, t: &str) {
        if self.writer.muted() {
            return;
        }
        let mut rest = t;
        while let Some((at, slot)) = rest
            .char_indices()
            .find_map(|(at, c)| Some((at, slot_of(c)?)))
        {
            self.writer.text(&rest[..at]);
            self.cut(slot, Context::Text);
            rest = &rest[at + placeholder(slot).len_utf8()..];
        }
        self.writer.text(rest);
    }

    fn comment(&mut self, c: &str) {
        self.writer.comment(c);
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

    /// A card with the name in a text, in the middle of a text, and as a
    /// whole attribute value, plus a muted slot inside a void element.
    fn card<S: HtmlSink>(s: &mut S, name: &str, price: &str) {
        s.open("div", &[("class", "card"), ("title", name), ("id", "c")]);
        s.text_element("h1", &[], &format!("{name} — shop"));
        s.text_element("span", &[("class", "price")], price);
        s.open("img", &[("alt", name)]);
        s.text(name);
        s.close();
        s.close();
    }

    fn spliced(name: &str, price: &str) -> (String, String) {
        let mut recorder = SkeletonWriter::default();
        card(
            &mut recorder,
            &placeholder(0).to_string(),
            &placeholder(1).to_string(),
        );
        let skeleton = recorder.finish();
        assert!(!has_placeholder(&skeleton.html));
        let mut page = String::from("<!-- kept -->");
        skeleton.splice(&mut page, |slot, out| {
            out.push_str(if slot == 0 { name } else { price });
        });
        let mut writer = HtmlWriter::default();
        card(&mut writer, name, price);
        (page[13..].to_owned(), writer.finish())
    }

    #[test]
    fn skeleton_splice_matches_writer() {
        for (name, price) in [
            ("Camera", "$9.99"),
            (
                "Tom &amp; Jerry's \"<Box>\" &euro;",
                "1.299,00\u{a0}€ &#8364;",
            ),
            ("ほげ\u{a0}é & ;", "<&>"),
            // Values that decode to nothing leave a bare attribute name.
            ("", ""),
            ("&", "&amp;"),
        ] {
            let (page, expected) = spliced(name, price);
            assert_eq!(page, expected, "{name:?} / {price:?}");
        }
    }

    #[test]
    fn skeleton_records_slots_in_page_order() {
        let mut recorder = SkeletonWriter::default();
        card(
            &mut recorder,
            &placeholder(3).to_string(),
            &placeholder(5).to_string(),
        );
        let skeleton = recorder.finish();
        // title attr, h1 text, price, img alt; the muted text is dropped.
        assert_eq!(skeleton.slots().collect::<Vec<_>>(), [3, 3, 5, 3]);
    }

    #[test]
    #[should_panic(expected = "whole attribute value")]
    fn placeholder_inside_attribute_value_panics() {
        let mut recorder = SkeletonWriter::default();
        recorder.leaf("a", &[("href", &format!("/p/{}", placeholder(0)))]);
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_writer_panics() {
        let mut w = HtmlWriter::default();
        w.open("div", &[]);
        let _ = w.finish();
    }
}
