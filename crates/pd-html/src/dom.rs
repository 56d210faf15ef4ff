//! Arena-backed document tree over one string buffer.
//!
//! Nodes live in a flat `Vec`; [`NodeId`] is an index. Every tag name,
//! attribute name and value, text, comment and doctype payload is a byte
//! range into one per-document `String`, decoded once on insert, and
//! children are linked first-child / next-sibling. Building a document
//! therefore grows three vectors instead of allocating per node, and a
//! cleared document keeps their capacity for the next page — which is
//! what [`crate::parse_pooled`] relies on.
//!
//! Callers read the tree through accessors ([`Document::data`],
//! [`Document::children`], [`Document::parent`], …), never through the
//! storage layout.

use crate::escape::{escape_into, unescape_into};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// The document root (always index 0).
    pub const ROOT: NodeId = NodeId(0);

    pub(crate) fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node arena overflow"))
    }

    /// Arena index of the node.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Payload of a node, borrowed from its document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeData<'d> {
    /// The synthetic root that holds the doctype and `<html>`.
    Root,
    /// An element (attributes via [`Document::attrs`]).
    Element {
        /// Tag name (lowercased when appended through
        /// [`Document::append_element`]).
        tag: &'d str,
    },
    /// A text node (entity-decoded).
    Text(&'d str),
    /// A comment.
    Comment(&'d str),
    /// The doctype, e.g. `html`.
    Doctype(&'d str),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Root,
    Element,
    Text,
    Comment,
    Doctype,
}

/// A byte range of a document's string buffer (or of its attribute list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// One attribute: name and entity-decoded value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AttrSpan {
    name: Span,
    value: Span,
}

/// One node: kind, payload and tree links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    kind: Kind,
    /// Tag name for elements, the text otherwise (empty for the root).
    payload: Span,
    /// The element's attributes: a range of the document's attribute list.
    attrs: Span,
    parent: Option<NodeId>,
    first_child: Option<NodeId>,
    last_child: Option<NodeId>,
    next_sibling: Option<NodeId>,
}

impl Node {
    const ROOT: Node = Node {
        kind: Kind::Root,
        payload: Span { start: 0, end: 0 },
        attrs: Span { start: 0, end: 0 },
        parent: None,
        first_child: None,
        last_child: None,
        next_sibling: None,
    };
}

/// The arena lengths of a [`Document`] at one moment of its build; see
/// [`Document::rewind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mark {
    nodes: u32,
    attrs: u32,
    buf: u32,
}

impl Mark {
    /// A document holding only its root.
    pub(crate) const ROOT: Mark = Mark {
        nodes: 1,
        attrs: 0,
        buf: 0,
    };

    /// The number of nodes kept, the root included.
    pub(crate) fn nodes(self) -> usize {
        self.nodes as usize
    }
}

/// An HTML document: an arena of nodes rooted at [`NodeId::ROOT`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    nodes: Vec<Node>,
    attrs: Vec<AttrSpan>,
    buf: String,
}

impl Document {
    /// Creates an empty document containing only the root.
    #[must_use]
    pub fn new() -> Self {
        Document {
            nodes: vec![Node::ROOT],
            attrs: Vec::new(),
            buf: String::new(),
        }
    }

    /// An empty document with room for a page of `html_len` bytes, so
    /// parsing it rarely grows a buffer. The string buffer never needs
    /// more: every payload is a slice of the page, or shorter once
    /// decoded.
    #[must_use]
    pub(crate) fn with_capacity_for(html_len: usize) -> Self {
        let mut nodes = Vec::with_capacity(html_len / 16 + 8);
        nodes.push(Node::ROOT);
        Document {
            nodes,
            attrs: Vec::with_capacity(html_len / 32 + 4),
            buf: String::with_capacity(html_len),
        }
    }

    /// Empties the document back to the root, keeping its buffers'
    /// capacity.
    pub(crate) fn clear(&mut self) {
        self.rewind(Mark::ROOT, NodeId::ROOT);
    }

    /// The lengths of the three arenas, for a later [`Document::rewind`].
    pub(crate) fn mark(&self) -> Mark {
        let len = |n: usize| u32::try_from(n).expect("document arena overflow");
        Mark {
            nodes: len(self.nodes.len()),
            attrs: len(self.attrs.len()),
            buf: len(self.buf.len()),
        }
    }

    /// Rolls the document back to `mark`, taken while `top` was the
    /// insertion point of a tree builder that appends every node under
    /// its insertion point: the nodes, attributes and bytes appended
    /// since are dropped and unlinked, leaving exactly the document as
    /// it was at the mark.
    ///
    /// Only open elements (`top` and its ancestors) gained children
    /// after the mark, and `top` is an ancestor of (or is) the last node
    /// kept. Every node on that last node's ancestor path was its
    /// parent's last child at the mark: a later sibling is appended only
    /// once the earlier one has closed. So relinking that path restores
    /// every link the dropped nodes changed.
    pub(crate) fn rewind(&mut self, mark: Mark, top: NodeId) {
        self.nodes.truncate(mark.nodes as usize);
        self.attrs.truncate(mark.attrs as usize);
        self.buf.truncate(mark.buf as usize);
        let last = NodeId::new(self.nodes.len() - 1);
        if last == top {
            let node = &mut self.nodes[top.index()];
            node.first_child = None;
            node.last_child = None;
        }
        let mut child = last;
        while let Some(parent) = self.nodes[child.index()].parent {
            self.nodes[child.index()].next_sibling = None;
            self.nodes[parent.index()].last_child = Some(child);
            child = parent;
        }
    }

    /// Number of nodes, including the root.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: the root exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Checks whether `id` belongs to this document.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len()
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    fn str(&self, span: Span) -> &str {
        &self.buf[span.range()]
    }

    /// Appends `f`'s output to the buffer and returns its span.
    fn push_str_with(&mut self, f: impl FnOnce(&mut String)) -> Span {
        let start = self.buf.len();
        f(&mut self.buf);
        let end = self.buf.len();
        Span {
            start: u32::try_from(start).expect("document buffer overflow"),
            end: u32::try_from(end).expect("document buffer overflow"),
        }
    }

    fn push_node(&mut self, parent: NodeId, kind: Kind, payload: Span, attrs: Span) -> NodeId {
        assert!(
            matches!(self.node(parent).kind, Kind::Root | Kind::Element),
            "only the root and elements hold children"
        );
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(Node {
            kind,
            payload,
            attrs,
            parent: Some(parent),
            first_child: None,
            last_child: None,
            next_sibling: None,
        });
        let prev = self.nodes[parent.index()].last_child.replace(id);
        match prev {
            Some(prev) => self.nodes[prev.index()].next_sibling = Some(id),
            None => self.nodes[parent.index()].first_child = Some(id),
        }
        id
    }

    /// Appends a child under `parent` with its payload stored verbatim
    /// (no lowercasing, no entity decoding) and returns its id.
    ///
    /// # Panics
    ///
    /// Panics when asked to append a second root, or when `parent` is
    /// neither the root nor an element.
    pub fn append(&mut self, parent: NodeId, data: NodeData<'_>) -> NodeId {
        let (kind, payload) = match data {
            NodeData::Root => panic!("a document has exactly one root"),
            NodeData::Element { tag } => (Kind::Element, tag),
            NodeData::Text(t) => (Kind::Text, t),
            NodeData::Comment(c) => (Kind::Comment, c),
            NodeData::Doctype(d) => (Kind::Doctype, d),
        };
        let payload = self.push_str_with(|buf| buf.push_str(payload));
        let attrs = self.attr_span(self.attrs.len());
        self.push_node(parent, kind, payload, attrs)
    }

    fn attr_span(&self, start: usize) -> Span {
        let end = self.attrs.len();
        Span {
            start: u32::try_from(start).expect("attribute arena overflow"),
            end: u32::try_from(end).expect("attribute arena overflow"),
        }
    }

    /// Appends an element child with a lowercased tag name and
    /// `(name, raw value)` attributes, decoding value entities.
    pub fn append_element<'x>(
        &mut self,
        parent: NodeId,
        tag: &str,
        attrs: impl IntoIterator<Item = (&'x str, &'x str)>,
    ) -> NodeId {
        let tag = self.push_str_with(|buf| {
            let start = buf.len();
            buf.push_str(tag);
            buf[start..].make_ascii_lowercase();
        });
        let first_attr = self.attrs.len();
        for (name, value) in attrs {
            let name = self.push_str_with(|buf| buf.push_str(name));
            let value = self.push_str_with(|buf| unescape_into(value, buf));
            self.attrs.push(AttrSpan { name, value });
        }
        let attrs = self.attr_span(first_attr);
        self.push_node(parent, Kind::Element, tag, attrs)
    }

    /// Appends a text child, decoding entities.
    pub fn append_text(&mut self, parent: NodeId, raw: &str) -> NodeId {
        let text = self.push_str_with(|buf| unescape_into(raw, buf));
        let attrs = self.attr_span(self.attrs.len());
        self.push_node(parent, Kind::Text, text, attrs)
    }

    /// The node's payload.
    ///
    /// # Panics
    ///
    /// Panics on an id from another document (out of bounds).
    #[must_use]
    pub fn data(&self, id: NodeId) -> NodeData<'_> {
        let node = self.node(id);
        let payload = self.str(node.payload);
        match node.kind {
            Kind::Root => NodeData::Root,
            Kind::Element => NodeData::Element { tag: payload },
            Kind::Text => NodeData::Text(payload),
            Kind::Comment => NodeData::Comment(payload),
            Kind::Doctype => NodeData::Doctype(payload),
        }
    }

    /// Parent link (`None` only for the root).
    #[must_use]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Children of `id` in document order.
    #[must_use]
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.node(id).first_child,
        }
    }

    /// Tag name of an element node, `None` otherwise.
    #[must_use]
    pub fn tag(&self, id: NodeId) -> Option<&str> {
        let node = self.node(id);
        (node.kind == Kind::Element).then(|| self.str(node.payload))
    }

    /// `(name, value)` attributes of an element in source order (values
    /// entity-decoded); empty for other nodes.
    pub fn attrs(&self, id: NodeId) -> impl Iterator<Item = (&str, &str)> {
        self.attrs[self.node(id).attrs.range()]
            .iter()
            .map(|a| (self.str(a.name), self.str(a.value)))
    }

    /// Attribute value of an element node.
    #[must_use]
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attrs(id).find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// `id` attribute shortcut.
    #[must_use]
    pub fn element_id(&self, id: NodeId) -> Option<&str> {
        self.attr(id, "id")
    }

    /// Whitespace-separated class list of an element.
    pub fn classes(&self, id: NodeId) -> impl Iterator<Item = &str> + Clone {
        self.attr(id, "class").unwrap_or("").split_whitespace()
    }

    /// True if the element carries class `class_name`.
    #[must_use]
    pub fn has_class(&self, id: NodeId, class_name: &str) -> bool {
        self.classes(id).any(|c| c == class_name)
    }

    /// Concatenated text content of the subtree rooted at `id`
    /// (document order, no separators) — what a user sees highlighted.
    #[must_use]
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants(id) {
            let node = self.node(n);
            // Only the root and elements have children, so this skips
            // exactly the comment and doctype payloads.
            if node.kind == Kind::Text {
                out.push_str(self.str(node.payload));
            }
        }
        out
    }

    /// Depth-first pre-order traversal of the subtree rooted at `id`,
    /// `id` first.
    #[must_use]
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            root: id,
            next: Some(id),
        }
    }

    /// All element ids in document order.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.descendants(NodeId::ROOT)
            .filter(|&n| self.node(n).kind == Kind::Element)
    }

    /// Index of `id` among its element siblings with the same tag
    /// (0-based), the quantity CSS `nth-of-type` uses and node paths
    /// record.
    #[must_use]
    pub fn same_tag_sibling_index(&self, id: NodeId) -> usize {
        let (Some(parent), Some(tag)) = (self.parent(id), self.tag(id)) else {
            return 0;
        };
        self.children(parent)
            .take_while(|&c| c != id)
            .filter(|&c| self.tag(c) == Some(tag))
            .count()
    }

    /// Serializes the subtree at `id` back to HTML.
    #[must_use]
    pub fn to_html(&self, id: NodeId) -> String {
        let mut out = String::with_capacity(self.buf.len() * 2);
        self.write_html(id, &mut out);
        out
    }

    fn write_html(&self, id: NodeId, out: &mut String) {
        match self.data(id) {
            NodeData::Root => {
                for c in self.children(id) {
                    self.write_html(c, out);
                }
            }
            NodeData::Doctype(d) => write_doctype(out, d),
            NodeData::Comment(c) => write_comment(out, c),
            NodeData::Text(t) => escape_into(t, out),
            NodeData::Element { tag } => {
                write_start_tag(out, tag, self.attrs(id));
                if is_void(tag) {
                    return;
                }
                for c in self.children(id) {
                    self.write_html(c, out);
                }
                write_end_tag(out, tag);
            }
        }
    }
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

/// Iterator over a node's children, see [`Document::children`].
#[derive(Debug, Clone)]
pub struct Children<'d> {
    doc: &'d Document,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.doc.node(id).next_sibling;
        Some(id)
    }
}

/// Pre-order subtree iterator, see [`Document::descendants`]. Walks the
/// links directly; it allocates nothing.
#[derive(Debug, Clone)]
pub struct Descendants<'d> {
    doc: &'d Document,
    root: NodeId,
    next: Option<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        let node = self.doc.node(id);
        self.next = node.first_child.or_else(|| {
            // No children: the next sibling of the nearest node on the
            // way back up that has one, without leaving the subtree.
            let mut cur = id;
            loop {
                if cur == self.root {
                    return None;
                }
                let n = self.doc.node(cur);
                if let Some(sibling) = n.next_sibling {
                    return Some(sibling);
                }
                cur = n.parent?;
            }
        });
        Some(id)
    }
}

/// `<!DOCTYPE d>`.
pub(crate) fn write_doctype(out: &mut String, d: &str) {
    out.push_str("<!DOCTYPE ");
    out.push_str(d);
    out.push('>');
}

/// `<!--c-->`.
pub(crate) fn write_comment(out: &mut String, c: &str) {
    out.push_str("<!--");
    out.push_str(c);
    out.push_str("-->");
}

/// `<tag name="value" bare>`: values escaped, empty values written as a
/// bare name.
pub(crate) fn write_start_tag<'x, V: AsRef<str>>(
    out: &mut String,
    tag: &str,
    attrs: impl Iterator<Item = (&'x str, V)>,
) {
    out.push('<');
    out.push_str(tag);
    for (name, value) in attrs {
        let value = value.as_ref();
        out.push(' ');
        out.push_str(name);
        if !value.is_empty() {
            out.push_str("=\"");
            escape_into(value, out);
            out.push('"');
        }
    }
    out.push('>');
}

/// `</tag>`.
pub(crate) fn write_end_tag(out: &mut String, tag: &str) {
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

/// HTML void elements (may not have children or close tags).
#[must_use]
pub fn is_void(tag: &str) -> bool {
    matches!(
        tag,
        "area"
            | "base"
            | "br"
            | "col"
            | "embed"
            | "hr"
            | "img"
            | "input"
            | "link"
            | "meta"
            | "param"
            | "source"
            | "track"
            | "wbr"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr<'a>(n: &'a str, v: &'a str) -> (&'a str, &'a str) {
        (n, v)
    }

    #[test]
    fn build_small_tree() {
        let mut doc = Document::new();
        let html = doc.append_element(NodeId::ROOT, "html", vec![]);
        let body = doc.append_element(html, "body", vec![]);
        let p = doc.append_element(body, "p", vec![attr("class", "price main")]);
        doc.append_text(p, "12.99");
        assert_eq!(doc.len(), 5);
        assert_eq!(doc.tag(p), Some("p"));
        assert!(doc.has_class(p, "price"));
        assert!(doc.has_class(p, "main"));
        assert!(!doc.has_class(p, "pric"));
        assert_eq!(doc.text_content(p), "12.99");
        assert_eq!(doc.text_content(NodeId::ROOT), "12.99");
    }

    #[test]
    fn attr_lookup() {
        let mut doc = Document::new();
        let div = doc.append_element(NodeId::ROOT, "div", vec![attr("id", "x"), attr("a", "1")]);
        assert_eq!(doc.element_id(div), Some("x"));
        assert_eq!(doc.attr(div, "a"), Some("1"));
        assert_eq!(doc.attr(div, "b"), None);
    }

    #[test]
    fn attribute_entities_decoded() {
        let mut doc = Document::new();
        let a = doc.append_element(NodeId::ROOT, "a", vec![attr("title", "Tom &amp; Jerry")]);
        assert_eq!(doc.attr(a, "title"), Some("Tom & Jerry"));
    }

    #[test]
    fn text_entities_decoded() {
        let mut doc = Document::new();
        let s = doc.append_element(NodeId::ROOT, "span", vec![]);
        doc.append_text(s, "&euro;9");
        assert_eq!(doc.text_content(s), "€9");
    }

    #[test]
    fn descendants_are_document_order() {
        let mut doc = Document::new();
        let a = doc.append_element(NodeId::ROOT, "a", vec![]);
        let b = doc.append_element(a, "b", vec![]);
        let c = doc.append_element(a, "c", vec![]);
        let d = doc.append_element(b, "d", vec![]);
        assert_eq!(
            doc.descendants(NodeId::ROOT).collect::<Vec<_>>(),
            vec![NodeId::ROOT, a, b, d, c]
        );
        assert_eq!(doc.descendants(b).collect::<Vec<_>>(), vec![b, d]);
        assert_eq!(doc.children(a).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(doc.parent(d), Some(b));
    }

    #[test]
    fn same_tag_sibling_index_counts_only_same_tag() {
        let mut doc = Document::new();
        let ul = doc.append_element(NodeId::ROOT, "ul", vec![]);
        let li0 = doc.append_element(ul, "li", vec![]);
        let _sp = doc.append_element(ul, "span", vec![]);
        let li1 = doc.append_element(ul, "li", vec![]);
        assert_eq!(doc.same_tag_sibling_index(li0), 0);
        assert_eq!(doc.same_tag_sibling_index(li1), 1);
        assert_eq!(doc.same_tag_sibling_index(NodeId::ROOT), 0);
    }

    #[test]
    fn to_html_round_trip_escaping() {
        let mut doc = Document::new();
        let p = doc.append_element(NodeId::ROOT, "p", vec![attr("title", "a\"b")]);
        doc.append_text(p, "1 < 2 & 3");
        let html = doc.to_html(NodeId::ROOT);
        assert_eq!(html, "<p title=\"a&quot;b\">1 &lt; 2 &amp; 3</p>");
    }

    #[test]
    fn void_elements_render_without_close() {
        let mut doc = Document::new();
        doc.append_element(NodeId::ROOT, "br", vec![]);
        assert_eq!(doc.to_html(NodeId::ROOT), "<br>");
        assert!(is_void("img"));
        assert!(!is_void("div"));
    }

    #[test]
    fn text_content_skips_comments() {
        let mut doc = Document::new();
        let p = doc.append_element(NodeId::ROOT, "p", vec![]);
        doc.append(p, NodeData::Comment("hidden"));
        doc.append_text(p, "visible");
        assert_eq!(doc.text_content(p), "visible");
    }

    #[test]
    fn clear_keeps_capacity_and_resets_to_root() {
        let mut doc = Document::new();
        let p = doc.append_element(NodeId::ROOT, "p", vec![attr("class", "x")]);
        doc.append_text(p, "text");
        let capacity = doc.buf.capacity();
        doc.clear();
        assert_eq!(doc, Document::new());
        assert_eq!(doc.buf.capacity(), capacity);
        assert_eq!(doc.children(NodeId::ROOT).count(), 0);
        let q = doc.append_element(NodeId::ROOT, "q", vec![]);
        assert_eq!(doc.to_html(NodeId::ROOT), "<q></q>");
        assert_eq!(doc.attrs(q).count(), 0);
    }

    #[test]
    #[should_panic(expected = "only the root and elements hold children")]
    fn text_nodes_hold_no_children() {
        let mut doc = Document::new();
        let t = doc.append_text(NodeId::ROOT, "x");
        doc.append_text(t, "y");
    }
}
