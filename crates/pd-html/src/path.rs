//! Structural node paths — the representation of a user's highlight.
//!
//! When a $heriff user highlights a price, the extension records *where*
//! in the page that text lives. That record must survive the trip to 13
//! other vantage points whose copies of the page differ: other currency
//! symbols, other recommended products, sometimes extra banner elements.
//!
//! A [`NodePath`] captures the highlighted element three ways, strongest
//! first:
//!
//! 1. **Anchor id** — the nearest ancestor with an `id` attribute plus the
//!    relative tag/index steps below it,
//! 2. **Class signature** — the element's tag and class list,
//! 3. **Absolute steps** — tag + same-tag sibling index from the root.
//!
//! [`NodePath::resolve_with_strategy`] tries the strategies in that
//! order, in one pass, without allocating. The layered design is what
//! makes extraction robust when a foreign copy inserts or removes
//! sibling elements — exactly the noise the paper had to survive.
//!
//! [`NodePath::parse_pooled_prefix`] parses a copy only as far as the
//! anchor strategy needs: the first element with the id and each step's
//! same-tag child are fixed once the append-only tree builder has made
//! them, and a closed element's subtree is final.

use crate::dom::{Document, NodeId};
use crate::parser::Checkpoint;
use crate::pool::{parse_pooled, parse_pooled_until, LastParse, PooledDocument};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One step of a structural path: "the `index`-th `tag` child".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Step {
    /// Lowercased tag name.
    pub tag: String,
    /// 0-based index among same-tag element siblings.
    pub index: usize,
}

/// A resolvable description of one element's position in a document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodePath {
    /// Nearest ancestor `id` (if any) and steps from that anchor down to
    /// the element (empty steps = the anchor itself).
    pub anchor: Option<(String, Vec<Step>)>,
    /// Tag of the target element.
    pub tag: String,
    /// Class list of the target element (sorted, for stable comparison).
    pub classes: Vec<String>,
    /// Absolute steps from the root.
    pub absolute: Vec<Step>,
}

impl NodePath {
    /// Captures the path of `el` in `doc`.
    ///
    /// # Panics
    ///
    /// Panics if `el` is not an element node — highlights always land on
    /// elements (the extension normalizes text selections to their parent
    /// element).
    #[must_use]
    pub fn capture(doc: &Document, el: NodeId) -> Self {
        let tag = doc
            .tag(el)
            .expect("highlight target must be an element")
            .to_owned();
        let mut classes: Vec<String> = doc.classes(el).map(str::to_owned).collect();
        classes.sort();

        // Absolute steps root → el.
        let chain = steps_up_to(doc, el, None);

        // Anchor: nearest ancestor (or self) with an id, and the steps
        // from it down to the element.
        let mut anchor = None;
        let mut cur = Some(el);
        while let Some(n) = cur {
            if let Some(id) = doc.element_id(n) {
                anchor = Some((id.to_owned(), steps_up_to(doc, el, Some(n))));
                break;
            }
            cur = doc.parent(n);
        }

        NodePath {
            anchor,
            tag,
            classes,
            absolute: chain,
        }
    }

    /// Resolves the path against a (possibly different) document.
    ///
    /// Strategy order: anchor id, then class signature, then absolute
    /// steps. Returns `None` when nothing matches — the measurement is
    /// then recorded as an extraction failure, as $heriff did.
    #[must_use]
    pub fn resolve(&self, doc: &Document) -> Option<NodeId> {
        self.resolve_with_strategy(doc).map(|(node, _)| node)
    }

    /// Which strategy [`NodePath::resolve`] would use on `doc`, for
    /// diagnostics and the extraction-robustness ablation.
    #[must_use]
    pub fn resolve_strategy(&self, doc: &Document) -> Option<ResolveStrategy> {
        self.resolve_with_strategy(doc)
            .map(|(_, strategy)| strategy)
    }

    /// Resolves the path and reports the strategy that matched, in one
    /// pass over the document.
    #[must_use]
    pub fn resolve_with_strategy(&self, doc: &Document) -> Option<(NodeId, ResolveStrategy)> {
        if let Some(node) = self.resolve_by_anchor(doc) {
            Some((node, ResolveStrategy::Anchor))
        } else if let Some(node) = self.resolve_by_classes(doc) {
            Some((node, ResolveStrategy::ClassSignature))
        } else {
            walk_steps(doc, NodeId::ROOT, &self.absolute)
                .map(|node| (node, ResolveStrategy::Absolute))
        }
    }

    /// Parses `html` like [`crate::parse_pooled`], but stops once the
    /// anchor strategy has resolved to an element with the captured tag
    /// and that element has closed. The anchor strategy comes first and
    /// is first-match, so on the returned prefix
    /// [`NodePath::resolve_with_strategy`] gives the node, strategy and
    /// text it gives on the whole page. With no anchor, an anchor id
    /// that never appears, steps that never resolve or a target of
    /// another tag, the later strategies need the whole page, and the
    /// page is parsed to its end.
    #[must_use]
    pub fn parse_pooled_prefix(&self, html: &str) -> PooledDocument {
        let Some((id, steps)) = &self.anchor else {
            return parse_pooled(html);
        };
        let mut stop = AnchorStop::new(id, steps, &self.tag);
        let mut memo = AnchorMemo::default();
        parse_pooled_until(html, |doc, top| stop.closed(doc, top, &mut memo))
    }

    /// [`NodePath::parse_pooled_prefix`] of `html`, parsed into `last`
    /// from the last checkpoint of the copy `last` parsed before that
    /// lies inside the two bodies' common byte prefix; the document is
    /// the same either way. Every prefix parse through `last` must be
    /// for this path; whole parses ([`LastParse::parse_whole`]) may come
    /// between them.
    pub fn parse_prefix_after<'l>(&self, html: &str, last: &'l mut LastParse) -> &'l Document {
        let stop = self
            .anchor
            .as_ref()
            .map(|(id, steps)| AnchorStop::new(id, steps, &self.tag));
        last.parse(html, stop);
        last.document()
    }

    fn resolve_by_anchor(&self, doc: &Document) -> Option<NodeId> {
        let (id, steps) = self.anchor.as_ref()?;
        let anchor = doc
            .elements()
            .find(|&el| doc.element_id(el) == Some(id.as_str()))?;
        let target = walk_steps(doc, anchor, steps)?;
        // The target must still look like what was highlighted.
        (doc.tag(target) == Some(self.tag.as_str())).then_some(target)
    }

    fn resolve_by_classes(&self, doc: &Document) -> Option<NodeId> {
        if self.classes.is_empty() {
            return None;
        }
        let mut hits = doc.elements().filter(|&el| {
            doc.tag(el) == Some(self.tag.as_str()) && self.same_classes(doc.classes(el))
        });
        let first = hits.next()?;
        // Ambiguity (several same-class nodes, e.g. recommended products)
        // means this strategy cannot be trusted.
        if hits.next().is_some() {
            return None;
        }
        Some(first)
    }

    /// Whether `classes` is the captured class list as a multiset: the
    /// same length, and every captured class occurring as often.
    fn same_classes<'d>(&self, classes: impl Iterator<Item = &'d str> + Clone) -> bool {
        classes.clone().count() == self.classes.len()
            && self.classes.iter().all(|c| {
                let wanted = self.classes.iter().filter(|x| *x == c).count();
                classes.clone().filter(|x| *x == c.as_str()).count() == wanted
            })
    }
}

/// Strategy that succeeded when resolving a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResolveStrategy {
    /// Matched via the nearest `id` anchor.
    Anchor,
    /// Matched via the tag + class signature.
    ClassSignature,
    /// Matched via absolute tag/index steps.
    Absolute,
}

/// What the anchor stop rule has learned of a document, kept by a
/// [`LastParse`] across the copies it parses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AnchorMemo {
    /// Arena nodes already searched for the anchor id. Elements are
    /// appended in document order, so the first hit among the new nodes
    /// is the page's first element with the id.
    scanned: usize,
    anchor: Option<NodeId>,
}

impl Default for AnchorMemo {
    fn default() -> Self {
        AnchorMemo {
            scanned: 1,
            anchor: None,
        }
    }
}

impl AnchorMemo {
    /// What was learned from the first `kept` nodes alone.
    pub(crate) fn rewind(self, kept: usize) -> Self {
        match self.anchor {
            Some(anchor) if anchor.index() < kept => self,
            _ => AnchorMemo {
                scanned: self.scanned.min(kept),
                anchor: None,
            },
        }
    }
}

/// The stop rule of [`NodePath::parse_pooled_prefix`], asked after each
/// token that closes an element.
pub(crate) struct AnchorStop<'p> {
    id: &'p str,
    steps: &'p [Step],
    tag: &'p str,
    /// The resolved target: `Some(None)` when it has another tag, so the
    /// anchor strategy fails whatever follows.
    target: Option<Option<NodeId>>,
}

impl<'p> AnchorStop<'p> {
    fn new(id: &'p str, steps: &'p [Step], tag: &'p str) -> Self {
        AnchorStop {
            id,
            steps,
            tag,
            target: None,
        }
    }

    /// Whether the anchor target exists, has the captured tag and is no
    /// longer on the open-element chain that ends at `top`; `memo` is
    /// what was learned of `doc` before.
    pub(crate) fn closed(&mut self, doc: &Document, top: NodeId, memo: &mut AnchorMemo) -> bool {
        let target = match self.target {
            Some(target) => target,
            None => {
                if memo.anchor.is_none() {
                    memo.anchor = (memo.scanned..doc.len())
                        .map(NodeId::new)
                        .find(|&n| doc.element_id(n) == Some(self.id));
                    memo.scanned = doc.len();
                }
                let Some(target) = memo.anchor.and_then(|a| walk_steps(doc, a, self.steps)) else {
                    return false;
                };
                let target = (doc.tag(target) == Some(self.tag)).then_some(target);
                self.target = Some(target);
                target
            }
        };
        target.is_some_and(|target| !on_chain(doc, top, target))
    }

    /// How many of `checkpoints`, passed by a whole parse that built
    /// `doc`, come before the token this rule stops at: those where the
    /// target did not exist yet or was still open. Once closed, an
    /// element never reopens, so they are a prefix.
    pub(crate) fn open_checkpoints(&self, doc: &Document, checkpoints: &[Checkpoint]) -> usize {
        let target = doc
            .elements()
            .find(|&el| doc.element_id(el) == Some(self.id))
            .and_then(|anchor| walk_steps(doc, anchor, self.steps))
            .filter(|&target| doc.tag(target) == Some(self.tag));
        let Some(target) = target else {
            // The rule never stops on this page.
            return checkpoints.len();
        };
        checkpoints
            .partition_point(|c| target.index() >= c.nodes() || on_chain(doc, c.top(), target))
    }
}

/// Whether `node` is `top` or one of its ancestors.
fn on_chain(doc: &Document, top: NodeId, node: NodeId) -> bool {
    std::iter::successors(Some(top), |&n| doc.parent(n)).any(|n| n == node)
}

fn walk_steps(doc: &Document, from: NodeId, steps: &[Step]) -> Option<NodeId> {
    let mut cur = from;
    for step in steps {
        cur = doc
            .children(cur)
            .filter(|&c| doc.tag(c) == Some(step.tag.as_str()))
            .nth(step.index)?;
    }
    Some(cur)
}

/// Steps from `top` (exclusive; `None` = the root) down to `el`.
fn steps_up_to(doc: &Document, el: NodeId, top: Option<NodeId>) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut cur = Some(el);
    while let Some(n) = cur.filter(|&n| Some(n) != top) {
        if let Some(tag) = doc.tag(n) {
            steps.push(Step {
                tag: tag.to_owned(),
                index: doc.same_tag_sibling_index(n),
            });
        }
        cur = doc.parent(n);
    }
    steps.reverse();
    steps
}

impl fmt::Display for NodePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some((id, steps)) = &self.anchor {
            write!(f, "#{id}")?;
            for s in steps {
                write!(f, " > {}[{}]", s.tag, s.index)?;
            }
        } else {
            let mut first = true;
            for s in &self.absolute {
                if !first {
                    write!(f, " > ")?;
                }
                write!(f, "{}[{}]", s.tag, s.index)?;
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::selector::Selector;

    const PAGE_A: &str = r#"
        <html><body>
          <div class="banner">SALE!</div>
          <div id="product">
            <h1>Camera</h1>
            <span class="value main-price">$1,299.00</span>
          </div>
          <div class="reco"><span class="value">$19.99</span></div>
        </body></html>"#;

    /// Same template rendered at another vantage point: different
    /// currency, an extra banner inserted before the product.
    const PAGE_B: &str = r#"
        <html><body>
          <div class="banner">SOLDES!</div>
          <div class="banner">LIVRAISON GRATUITE</div>
          <div id="product">
            <h1>Camera</h1>
            <span class="value main-price">1.199,00&nbsp;&euro;</span>
          </div>
          <div class="reco"><span class="value">18,99&nbsp;&euro;</span></div>
        </body></html>"#;

    fn highlight(docsrc: &str) -> (crate::dom::Document, NodePath) {
        let doc = parse(docsrc);
        let el = Selector::parse("#product span")
            .unwrap()
            .query_first(&doc)
            .unwrap();
        let path = NodePath::capture(&doc, el);
        (doc, path)
    }

    #[test]
    fn capture_records_anchor_and_classes() {
        let (_, path) = highlight(PAGE_A);
        let (id, steps) = path.anchor.as_ref().unwrap();
        assert_eq!(id, "product");
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].tag, "span");
        assert_eq!(path.tag, "span");
        assert_eq!(
            path.classes,
            vec!["main-price".to_string(), "value".to_string()]
        );
    }

    #[test]
    fn resolve_on_same_document() {
        let (doc, path) = highlight(PAGE_A);
        let hit = path.resolve(&doc).unwrap();
        assert_eq!(doc.text_content(hit), "$1,299.00");
        assert_eq!(path.resolve_strategy(&doc), Some(ResolveStrategy::Anchor));
    }

    #[test]
    fn resolve_on_foreign_copy_with_inserted_siblings() {
        // The extra banner shifts absolute indices; anchor resolution
        // must still find the right node.
        let (_, path) = highlight(PAGE_A);
        let doc_b = parse(PAGE_B);
        let hit = path.resolve(&doc_b).unwrap();
        assert_eq!(doc_b.text_content(hit), "1.199,00\u{a0}€");
    }

    #[test]
    fn class_fallback_when_anchor_missing() {
        let (_, path) = highlight(PAGE_A);
        // Same page but the id was renamed (template variant).
        let variant = PAGE_A.replace("id=\"product\"", "class=\"product\"");
        let doc = parse(&variant);
        let hit = path.resolve(&doc).unwrap();
        assert_eq!(doc.text_content(hit), "$1,299.00");
        assert_eq!(
            path.resolve_strategy(&doc),
            Some(ResolveStrategy::ClassSignature)
        );
    }

    #[test]
    fn class_fallback_refuses_ambiguity() {
        let (_, path) = highlight(PAGE_A);
        // Two identical class signatures and no anchor: must not guess.
        let ambiguous = r#"
            <html><body>
              <span class="value main-price">$1</span>
              <span class="value main-price">$2</span>
            </body></html>"#;
        let doc = parse(ambiguous);
        // Anchor fails (no #product), class is ambiguous, absolute path
        // points at body's first span-ish position which doesn't exist
        // along the captured chain.
        assert_eq!(path.resolve_strategy(&doc), None);
        assert!(path.resolve(&doc).is_none());
    }

    #[test]
    fn absolute_fallback_when_no_anchor_no_classes() {
        let src = "<html><body><div><span>$5</span></div></body></html>";
        let doc = parse(src);
        let el = Selector::parse("span").unwrap().query_first(&doc).unwrap();
        let path = NodePath::capture(&doc, el);
        assert!(path.anchor.is_none());
        assert!(path.classes.is_empty());
        let doc2 = parse(src);
        assert_eq!(
            path.resolve_strategy(&doc2),
            Some(ResolveStrategy::Absolute)
        );
        let hit = path.resolve(&doc2).unwrap();
        assert_eq!(doc2.text_content(hit), "$5");
    }

    #[test]
    fn anchor_verifies_tag() {
        let (_, path) = highlight(PAGE_A);
        // Anchor exists but the step now lands on a <b>: must reject and
        // fall back (here: class signature still matches nothing of tag
        // span under new layout? it does match — only tag check matters).
        let mutated = PAGE_A.replace(
            r#"<span class="value main-price">$1,299.00</span>"#,
            r#"<b class="other">$1,299.00</b>"#,
        );
        let doc = parse(&mutated);
        assert_ne!(path.resolve_strategy(&doc), Some(ResolveStrategy::Anchor));
    }

    #[test]
    fn display_renders_anchor_form() {
        let (_, path) = highlight(PAGE_A);
        assert_eq!(path.to_string(), "#product > span[0]");
    }

    #[test]
    fn display_renders_absolute_form() {
        let doc = parse("<html><body><span>x</span></body></html>");
        let el = Selector::parse("span").unwrap().query_first(&doc).unwrap();
        let path = NodePath::capture(&doc, el);
        assert_eq!(path.to_string(), "html[0] > body[0] > span[0]");
    }

    #[test]
    fn capture_of_anchor_element_itself() {
        // Highlighting the anchor element: steps below the anchor are empty.
        let doc = parse(r#"<div id="price-box">$7</div>"#);
        let el = Selector::parse("#price-box")
            .unwrap()
            .query_first(&doc)
            .unwrap();
        let path = NodePath::capture(&doc, el);
        let (id, steps) = path.anchor.as_ref().unwrap();
        assert_eq!(id, "price-box");
        assert!(steps.is_empty());
        assert_eq!(path.resolve(&doc), Some(el));
    }
}
