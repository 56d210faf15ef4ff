//! Tree construction: tokens → [`Document`].
//!
//! A pragmatic subset of the HTML5 tree-building rules, sufficient for the
//! sloppy-but-sane markup of 2013 retail templates:
//!
//! * void elements never become the insertion point,
//! * `<li>`, `<p>`, `<option>`, `<tr>`, `<td>`, `<th>` close an open
//!   element of the same tag implicitly,
//! * stray end tags are ignored,
//! * unclosed elements are closed at end of input,
//! * raw `<script>`/`<style>` text arrives pre-chunked from the tokenizer.
//!
//! Tokens are consumed as the tokenizer produces them. The open-element
//! stack is the insertion point's ancestor chain, so the parser walks
//! parent links instead of keeping a stack of its own.
//!
//! The one tree-building loop, `parse_into_until`, can stop after any
//! token that closes an element; [`parse`] and [`crate::parse_pooled`]
//! never stop it, and [`crate::NodePath::parse_pooled_prefix`] stops it
//! once the highlighted element has closed. It can also start from a
//! checkpoint an earlier parse recorded: the tree is append-only, so
//! rolling a document back to a checkpoint ([`Document`]'s crate-private
//! `rewind`) restores exactly what the parse held there, and a body that
//! shares every byte the tokens before it read continues from it as a
//! fresh parse would ([`crate::LastParse`]).

use crate::dom::{is_void, Document, Mark, NodeData, NodeId};
use crate::token::{Token, Tokenizer};

/// Parses HTML text into a document. Total: never fails, never panics;
/// arbitrarily broken input yields a best-effort tree.
///
/// # Examples
///
/// ```
/// use pd_html::{parse, Selector};
///
/// let doc = parse(r#"<div class="price">$12.99</div>"#);
/// let sel = Selector::parse("div.price").unwrap();
/// let hit = sel.query_first(&doc).unwrap();
/// assert_eq!(doc.text_content(hit), "$12.99");
/// ```
#[must_use]
pub fn parse(input: &str) -> Document {
    let mut doc = Document::with_capacity_for(input.len());
    parse_into_until(input, &mut doc, Checkpoint::START, |_| {}, |_, _| false);
    doc
}

/// A token boundary of a parse that a later parse can resume from:
/// where the tokenizer stood, the insertion point, and how far the
/// document's arenas reached.
///
/// Checkpoints are recorded only after a token other than text and
/// outside `<script>`/`<style>` raw text. The tokens before one then
/// read no byte at or past `pos`, save that an unterminated construct
/// may have run into the end of input there. (A text run reads one byte
/// past the `<` that ends it; raw text reads its whole close tag.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Checkpoint {
    /// Where the next token starts.
    pos: usize,
    /// The insertion point.
    top: NodeId,
    /// The document's arena lengths.
    mark: Mark,
}

impl Checkpoint {
    /// Before the first token, on an empty document.
    pub(crate) const START: Checkpoint = Checkpoint {
        pos: 0,
        top: NodeId::ROOT,
        mark: Mark::ROOT,
    };

    /// Whether a parse of another input reaches this checkpoint exactly
    /// as the parse that recorded it did, given that the two inputs share
    /// their first `common` bytes: byte `pos` is shared too, so neither
    /// input ends at `pos`.
    pub(crate) fn holds_within(self, common: usize) -> bool {
        self.pos < common
    }

    /// Where the next token starts.
    pub(crate) fn pos(self) -> usize {
        self.pos
    }

    /// The insertion point.
    pub(crate) fn top(self) -> NodeId {
        self.top
    }

    /// The nodes the document holds here, the root included.
    pub(crate) fn nodes(self) -> usize {
        self.mark.nodes()
    }

    /// Rolls `doc`, built by a parse that passed this checkpoint, back to
    /// what it held here.
    pub(crate) fn rewind(self, doc: &mut Document) {
        doc.rewind(self.mark, self.top);
    }
}

/// Builds the tree of `input` into `doc` from checkpoint `from` on,
/// until `done` says to stop; `doc` must hold what the parse held at
/// `from` ([`Checkpoint::START`]: only its root). After each token that
/// closes an element (a matched end tag, an implicit close, or a void or
/// self-closing start tag) it asks `done(doc, top)`, where `top` is the
/// new insertion point. The tree is append-only, so a stopped parse has
/// built exactly what the whole input builds at those nodes, and a
/// closed element's subtree is final.
///
/// Every checkpoint passed is handed to `record`; returns the position
/// after the token `done` stopped at, or `None` at the end of input.
pub(crate) fn parse_into_until(
    input: &str,
    doc: &mut Document,
    from: Checkpoint,
    mut record: impl FnMut(Checkpoint),
    mut done: impl FnMut(&Document, NodeId) -> bool,
) -> Option<usize> {
    debug_assert_eq!(
        doc.mark(),
        from.mark,
        "the document is not at the checkpoint"
    );
    let mut tokens = Tokenizer::at(input, from.pos);
    // The insertion point: the innermost open element (or the root).
    let mut top = from.top;
    // A doctype after the first element is appended off the open chain,
    // where `Document::rewind` cannot relink it: no checkpoint follows.
    let mut resumable = true;
    while let Some(token) = tokens.next() {
        let text = matches!(token, Token::Text(_));
        let closed = match token {
            Token::Doctype(d) => {
                resumable &= top == NodeId::ROOT;
                doc.append(NodeId::ROOT, NodeData::Doctype(d));
                false
            }
            Token::Comment(c) => {
                doc.append(top, NodeData::Comment(c));
                false
            }
            Token::Text(t) => {
                // Skip pure inter-tag whitespace to keep trees small; real
                // content whitespace (inside inline elements) survives
                // because it always neighbours non-space characters.
                if !t.trim().is_empty() || doc.tag(top).is_some_and(is_phrasing_container) {
                    doc.append_text(top, t);
                }
                false
            }
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                // Implicit close: a new <li> closes the previous <li>, etc.,
                // unless a list/table container sits between them.
                let mut closed = false;
                if implicitly_self_nesting(&name) {
                    if let Some(open) = open_element(doc, top, &name, is_scope_boundary) {
                        top = doc.parent(open).expect("an open element has a parent");
                        closed = true;
                    }
                }
                let id = doc.append_element(top, &name, attrs.iter().map(|a| (&*a.name, a.value)));
                tokens.recycle(attrs);
                if self_closing || is_void(&name) {
                    closed = true;
                } else {
                    top = id;
                }
                closed
            }
            Token::EndTag { name } => {
                // Stray end tags match nothing and are ignored.
                match open_element(doc, top, &name, |_| false) {
                    Some(open) => {
                        top = doc.parent(open).expect("an open element has a parent");
                        true
                    }
                    None => false,
                }
            }
        };
        if resumable && !text && !tokens.raw_text_pending() {
            record(Checkpoint {
                pos: tokens.pos(),
                top,
                mark: doc.mark(),
            });
        }
        if closed && done(doc, top) {
            return Some(tokens.pos());
        }
    }
    None
}

/// The innermost open element named `tag` — `top` or one of its
/// ancestors — unless an element satisfying `blocks` comes first.
fn open_element(
    doc: &Document,
    top: NodeId,
    tag: &str,
    blocks: impl Fn(&str) -> bool,
) -> Option<NodeId> {
    let mut cur = Some(top);
    while let Some(n) = cur {
        match doc.tag(n) {
            Some(t) if t == tag => return Some(n),
            Some(t) if blocks(t) => return None,
            _ => cur = doc.parent(n),
        }
    }
    None
}

/// Elements whose start tag implicitly closes a same-tag ancestor.
fn implicitly_self_nesting(tag: &str) -> bool {
    matches!(
        tag,
        "li" | "p" | "option" | "tr" | "td" | "th" | "dt" | "dd"
    )
}

/// Elements that bound the implicit-close search (a nested `<ul>` starts a
/// fresh `<li>` scope).
fn is_scope_boundary(tag: &str) -> bool {
    matches!(tag, "ul" | "ol" | "table" | "div" | "section" | "article")
}

/// Containers where whitespace-only text is meaningful enough to keep.
fn is_phrasing_container(tag: &str) -> bool {
    matches!(
        tag,
        "span" | "b" | "i" | "em" | "strong" | "a" | "small" | "sup" | "sub"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::Selector;
    use proptest::prelude::*;

    #[test]
    fn parses_nested_structure() {
        let doc = parse("<html><body><div id=a><p>one</p><p>two</p></div></body></html>");
        let sel = Selector::parse("div p").unwrap();
        let hits = sel.query_all(&doc);
        assert_eq!(hits.len(), 2);
        assert_eq!(doc.text_content(hits[0]), "one");
        assert_eq!(doc.text_content(hits[1]), "two");
    }

    #[test]
    fn doctype_recorded() {
        let doc = parse("<!DOCTYPE html><html></html>");
        let first = doc.children(NodeId::ROOT).next().unwrap();
        assert_eq!(doc.data(first), NodeData::Doctype("html"));
    }

    #[test]
    fn li_implicit_close() {
        let doc = parse("<ul><li>a<li>b<li>c</ul>");
        let sel = Selector::parse("ul > li").unwrap();
        let lis = sel.query_all(&doc);
        assert_eq!(lis.len(), 3);
        assert_eq!(doc.text_content(lis[0]), "a");
        assert_eq!(doc.text_content(lis[2]), "c");
    }

    #[test]
    fn nested_list_does_not_close_outer_li() {
        let doc = parse("<ul><li>a<ul><li>inner</li></ul></li><li>b</li></ul>");
        let outer = Selector::parse("ul > li").unwrap().query_all(&doc);
        // Outer list has 2 items; inner list has 1. query_all sees all 3
        // li elements, but the first outer li must *contain* the inner.
        let all_li = Selector::parse("li").unwrap().query_all(&doc);
        assert_eq!(all_li.len(), 3);
        assert!(doc.text_content(outer[0]).contains("inner"));
    }

    #[test]
    fn p_implicit_close() {
        let doc = parse("<body><p>first<p>second</body>");
        let ps = Selector::parse("p").unwrap().query_all(&doc);
        assert_eq!(ps.len(), 2);
        assert_eq!(doc.text_content(ps[0]), "first");
    }

    #[test]
    fn stray_end_tag_ignored() {
        let doc = parse("<div>a</span></div><p>b</p>");
        let ps = Selector::parse("p").unwrap().query_all(&doc);
        assert_eq!(ps.len(), 1);
        assert_eq!(doc.text_content(ps[0]), "b");
    }

    #[test]
    fn unclosed_elements_closed_at_eof() {
        let doc = parse("<div><span>x");
        let span = Selector::parse("div > span").unwrap().query_first(&doc);
        assert!(span.is_some());
        assert_eq!(doc.text_content(span.unwrap()), "x");
    }

    #[test]
    fn void_elements_do_not_nest() {
        let doc = parse("<div><img src=a.png><span>after</span></div>");
        // <span> must be a child of <div>, not of <img>.
        let span = Selector::parse("div > span").unwrap().query_first(&doc);
        assert!(span.is_some());
    }

    #[test]
    fn script_text_preserved_raw() {
        let doc = parse("<script>var a = \"<div>\" ;</script>");
        let script = Selector::parse("script")
            .unwrap()
            .query_first(&doc)
            .unwrap();
        assert!(doc.text_content(script).contains("<div>"));
        // No spurious div element was created.
        assert!(Selector::parse("div").unwrap().query_first(&doc).is_none());
    }

    #[test]
    fn whitespace_between_blocks_dropped() {
        let doc = parse("<div>\n  <p>a</p>\n  <p>b</p>\n</div>");
        let div = Selector::parse("div").unwrap().query_first(&doc).unwrap();
        // Children: exactly the two <p>, no whitespace text nodes.
        assert_eq!(doc.children(div).count(), 2);
    }

    #[test]
    fn entity_in_text_decoded() {
        let doc = parse("<span class=price>&euro;12,99</span>");
        let s = Selector::parse("span.price")
            .unwrap()
            .query_first(&doc)
            .unwrap();
        assert_eq!(doc.text_content(s), "€12,99");
    }

    #[test]
    fn table_cells_implicitly_close() {
        let doc = parse("<table><tr><td>a<td>b<tr><td>c</table>");
        let tds = Selector::parse("td").unwrap().query_all(&doc);
        assert_eq!(tds.len(), 3);
        let trs = Selector::parse("tr").unwrap().query_all(&doc);
        assert_eq!(trs.len(), 2);
    }

    proptest! {
        #[test]
        fn prop_parse_never_panics(s in "\\PC{0,512}") {
            let _ = parse(&s);
        }

        #[test]
        fn prop_parse_tag_soup_never_panics(s in "[<>/a-z \"=!-]{0,512}") {
            let _ = parse(&s);
        }

        #[test]
        fn prop_reserialized_output_reparses_to_same_tree(
            s in "[a-z<>/ ]{0,128}"
        ) {
            // Parse → serialize → parse must be a fixed point (idempotent
            // normal form), a classic parser invariant.
            let d1 = parse(&s);
            let html1 = d1.to_html(crate::dom::NodeId::ROOT);
            let d2 = parse(&html1);
            let html2 = d2.to_html(crate::dom::NodeId::ROOT);
            prop_assert_eq!(html1, html2);
        }
    }
}
