//! From-scratch HTML substrate.
//!
//! Challenge (i) of the paper (Sec. 2.2) is that every retailer renders
//! products with a different HTML template, and price extraction from an
//! unknown template is non-trivial — "a simple search for dollar or euro
//! sign would fail since typically product pages include additional
//! recommended or advertised products along with their prices". $heriff
//! solves this by letting the *user* highlight the price once; the system
//! then re-finds the same element in the copies downloaded at every
//! vantage point.
//!
//! Reproducing that mechanism needs a real HTML pipeline, which this crate
//! provides, dependency-free:
//!
//! * [`escape`] — entity escaping/unescaping,
//! * [`token`] — a streaming tokenizer whose tokens borrow the input,
//! * [`dom`] — an arena-backed document tree over one string buffer,
//! * [`parser`] — tree construction from tokens, [`parse_pooled`],
//!   which reuses each thread's documents across pages, and
//!   [`LastParse`], which parses a scope's next copy from where it
//!   differs from the last one,
//! * [`selector`] — a CSS-like selector engine (tag / `#id` / `.class` /
//!   `[attr]`, descendant and child combinators),
//! * [`path`] — structural node paths, the representation of a user's
//!   highlight that travels to the other vantage points, and
//!   [`NodePath::parse_pooled_prefix`], which parses a copy only as far
//!   as the highlight's anchor target,
//! * [`build`] — the [`HtmlSink`] the synthetic retailer templates are
//!   written against, with a document-building and an HTML-writing sink,
//!   and a [`Skeleton`] recorder for pages that differ only in a few
//!   strings.
//!
//! The parser targets the well-formed-but-sloppy HTML that 2013 retail
//! templates produce: unquoted attributes, void elements, unclosed `<li>`
//! / `<p>`, comments, raw-text `<script>`/`<style>`. It never panics on
//! arbitrary input (a property-based test pins that down).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod dom;
pub mod escape;
pub mod parser;
pub mod path;
mod pool;
pub mod selector;
pub mod token;

pub use build::{
    has_placeholder, placeholder, write_page, DocBuilder, HtmlSink, HtmlWriter, Skeleton,
    SkeletonWriter,
};
pub use dom::{Document, NodeData, NodeId};
pub use parser::parse;
pub use path::NodePath;
pub use pool::{parse_pooled, pooled_live, LastParse, PooledDocument};
pub use selector::Selector;
