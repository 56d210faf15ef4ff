//! Per-thread document reuse for parsing fetched pages.
//!
//! Every synchronized check fetches 14 copies of a page and parses each
//! distinct one (same-country copies with identical bytes are parsed
//! once), most of them only as far as the highlighted price
//! ([`crate::NodePath::parse_pooled_prefix`]), and the crawl makes
//! thousands of checks, so a run still parses thousands of pages.
//! [`parse_pooled`] keeps each worker thread's finished documents on a
//! small free list and parses the next page into one of them, so a page
//! costs no arena or buffer allocation once the thread has warmed up. A global live count (documents currently checked
//! out) lets tests prove every guard gave its document back.

use crate::dom::{Document, NodeId};
use crate::parser::parse_into_until;
use std::cell::RefCell;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Documents a thread keeps for reuse: enough for the nested parses of
/// one check (the user's own page, then each vantage copy).
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
    let mut doc = FREE
        .with(|free| free.borrow_mut().pop())
        .unwrap_or_else(|| Document::with_capacity_for(input.len()));
    parse_into_until(input, &mut doc, done);
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
