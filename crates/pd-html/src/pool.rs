//! Per-thread document reuse for parsing fetched pages, and resumed
//! parses of the later copies of one page.
//!
//! Every synchronized check fetches 14 copies of a page and parses each
//! distinct one (same-country copies with identical bytes are parsed
//! once), most of them only as far as the highlighted price
//! ([`crate::NodePath::parse_pooled_prefix`]), and the crawl makes
//! thousands of checks, so a run still parses thousands of pages.
//! [`parse_pooled`] keeps each worker thread's finished documents on a
//! small free list and parses the next page into one of them, so a page
//! costs no arena or buffer allocation once the thread has warmed up.
//! A global live count (documents currently checked out) lets tests
//! prove every guard gave its document back.
//!
//! The copies a scope reads are one page with different price strings,
//! byte for byte equal up to the first price. [`LastParse`] keeps a
//! scope's last parsed copy: its body, its pooled document and the
//! checkpoints its parse passed. The next copy is parsed by rolling that
//! document back to the last checkpoint inside the two bodies' common
//! byte prefix and resuming there, which builds exactly the document a
//! fresh parse builds. A scope may mix whole parses
//! ([`LastParse::parse_whole`]: a crowd user's own copy, a probe's copy)
//! with parses that stop at a highlight's anchor
//! ([`crate::NodePath::parse_prefix_after`]: the vantage copies).

use crate::dom::{Document, NodeId};
use crate::parser::{parse_into_until, Checkpoint};
use crate::path::{AnchorMemo, AnchorStop};
use std::cell::RefCell;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Documents a thread keeps for reuse. A scope holds one document (its
/// [`LastParse`]) while it reads; a test or a caller may nest a few
/// [`parse_pooled`] guards beside it.
const FREE_LIST_MAX: usize = 4;

thread_local! {
    static FREE: RefCell<Vec<Document>> = const { RefCell::new(Vec::new()) };
}

/// Pooled documents currently checked out, across all threads.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Parses `input` like [`crate::parse`], into a document taken from this
/// thread's free list. The guard derefs to the [`Document`] and returns
/// it, cleared, to the free list when dropped.
///
/// # Examples
///
/// ```
/// let doc = pd_html::parse_pooled("<p class=price>$5</p>");
/// let hit = pd_html::Selector::parse("p.price").unwrap().query_first(&doc);
/// assert_eq!(doc.text_content(hit.unwrap()), "$5");
/// ```
#[must_use]
pub fn parse_pooled(input: &str) -> PooledDocument {
    parse_pooled_until(input, |_, _| false)
}

/// [`parse_pooled`] that stops as soon as `done(doc, top)` says so; see
/// [`parse_into_until`].
pub(crate) fn parse_pooled_until(
    input: &str,
    done: impl FnMut(&Document, NodeId) -> bool,
) -> PooledDocument {
    let mut guard = checkout(input.len());
    parse_into_until(input, guard.doc_mut(), Checkpoint::START, |_| {}, done);
    guard
}

/// An empty document from this thread's free list (or a new one with
/// room for a page of `len` bytes), checked out.
fn checkout(len: usize) -> PooledDocument {
    let doc = FREE
        .with(|free| free.borrow_mut().pop())
        .unwrap_or_else(|| Document::with_capacity_for(len));
    LIVE.fetch_add(1, Ordering::Relaxed);
    PooledDocument { doc: Some(doc) }
}

/// Number of [`PooledDocument`] guards alive right now, on any thread.
#[must_use]
pub fn pooled_live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// A parsed document on loan from the per-thread pool; see
/// [`parse_pooled`].
#[derive(Debug)]
pub struct PooledDocument {
    /// Always `Some` until dropped.
    doc: Option<Document>,
}

impl PooledDocument {
    fn doc_mut(&mut self) -> &mut Document {
        self.doc.as_mut().expect("a live guard holds its document")
    }
}

impl Deref for PooledDocument {
    type Target = Document;

    fn deref(&self) -> &Document {
        self.doc.as_ref().expect("a live guard holds its document")
    }
}

impl Drop for PooledDocument {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        let Some(mut doc) = self.doc.take() else {
            return;
        };
        doc.clear();
        // During thread teardown the free list may already be gone; the
        // document is then simply freed.
        let _ = FREE.try_with(|free| {
            if let Ok(mut free) = free.try_borrow_mut() {
                if free.len() < FREE_LIST_MAX {
                    free.push(doc);
                }
            }
        });
    }
}

/// The last page copy parsed in one scope (one synchronized check, one
/// probe scope): its body, its pooled document and the checkpoints its
/// parse passed, so that the next copy is parsed only from where the
/// two differ.
///
/// [`LastParse::parse_whole`] and [`crate::NodePath::parse_prefix_after`]
/// parse a copy into it: the document is rolled back to the last
/// checkpoint that lies inside the common byte prefix of the new body
/// and the last one (and, for a parse that stops at an anchor, before
/// that anchor's target closed), and the parse resumes there. The
/// result equals [`crate::parse`] or
/// [`crate::NodePath::parse_pooled_prefix`] of the new body. The parses
/// that stop at an anchor must all be for one [`crate::NodePath`]; whole
/// parses may come between them. A `LastParse` holds its document
/// (counted by [`pooled_live`]) until dropped.
#[derive(Debug, Default)]
pub struct LastParse {
    /// `None` until the first parse.
    doc: Option<PooledDocument>,
    body: String,
    checkpoints: Vec<Checkpoint>,
    /// The position after the token the last parse stopped at, if its
    /// anchor ended it before the end of input.
    stopped_at: Option<usize>,
    /// Whether the last parse was a whole one, so that its checkpoints
    /// may lie past where an anchored parse stops.
    whole: bool,
    /// The anchor stop rule's memo, valid for `doc`.
    anchor: AnchorMemo,
    resumed: u64,
}

impl LastParse {
    /// A scope with no copy parsed yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// How many parses resumed from a checkpoint of the copy before them
    /// rather than starting over.
    #[must_use]
    pub fn resumed(&self) -> u64 {
        self.resumed
    }

    /// Parses the whole of `input` in place of the last copy, from the
    /// last checkpoint the two bodies share: the document equals
    /// [`crate::parse`] of `input`.
    pub fn parse_whole(&mut self, input: &str) -> &Document {
        self.parse(input, None);
        self.document()
    }

    /// The last copy's document.
    ///
    /// # Panics
    ///
    /// Panics before the first parse.
    pub(crate) fn document(&self) -> &Document {
        self.doc.as_ref().expect("a copy was parsed")
    }

    /// Parses `input` in place of the last copy, from the last checkpoint
    /// the two bodies share, to its end or until `stop`'s target closes.
    pub(crate) fn parse(&mut self, input: &str, mut stop: Option<AnchorStop<'_>>) {
        let LastParse {
            doc,
            body,
            checkpoints,
            stopped_at,
            whole,
            anchor,
            resumed,
        } = self;
        let doc = doc.get_or_insert_with(|| checkout(input.len())).doc_mut();
        let common = common_prefix(body.as_bytes(), input.as_bytes());
        let mut kept = checkpoints.partition_point(|c| c.holds_within(common));
        if let (Some(stop), true) = (&stop, *whole) {
            // A fresh anchored parse stops once the target has closed, so
            // it never passes the whole parse's later checkpoints.
            kept = stop.open_checkpoints(doc, &checkpoints[..kept]);
        }
        let from = match kept.checked_sub(1) {
            Some(last) => {
                *resumed += 1;
                checkpoints[last]
            }
            None => Checkpoint::START,
        };
        checkpoints.truncate(kept);
        from.rewind(doc);
        *anchor = anchor.rewind(from.nodes());
        // At the token the last anchored parse stopped at, an anchored
        // parse of `input` stops too: nothing is left to parse.
        if stop.is_none() || *stopped_at != Some(from.pos()) {
            *stopped_at = parse_into_until(
                input,
                doc,
                from,
                |c| checkpoints.push(c),
                |doc, top| stop.as_mut().is_some_and(|s| s.closed(doc, top, anchor)),
            );
        }
        *whole = stop.is_none();
        body.clear();
        body.push_str(input);
    }
}

/// The length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    const CHUNK: usize = 16;
    let len = a.len().min(b.len());
    let mut at = 0;
    while at + CHUNK <= len && a[at..at + CHUNK] == b[at..at + CHUNK] {
        at += CHUNK;
    }
    while at < len && a[at] == b[at] {
        at += 1;
    }
    at
}
