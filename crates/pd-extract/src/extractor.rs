//! The highlight extractor and the naive baseline.

use crate::parse_price::parse_price_text;
use pd_currency::{Locale, Price};
use pd_html::path::ResolveStrategy;
use pd_html::{Document, NodePath, Selector};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why an extraction failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExtractError {
    /// The highlight's node path matched nothing in this copy.
    NodeNotFound,
    /// The node resolved but holds no text.
    EmptyText,
    /// The node's text is not a parsable price.
    UnparsablePrice(String),
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::NodeNotFound => write!(f, "highlighted node not found in page copy"),
            ExtractError::EmptyText => write!(f, "highlighted node holds no text"),
            ExtractError::UnparsablePrice(t) => write!(f, "unparsable price text: {t:?}"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// A successful extraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Extracted {
    /// The parsed price.
    pub price: Price,
    /// Which node-path strategy resolved the highlight.
    pub strategy: ResolveStrategy,
    /// The raw text of the node (kept for the measurement DB, as $heriff
    /// stored full pages for offline analysis).
    pub raw_text: String,
}

/// $heriff's extractor: a captured highlight replayed against page copies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HighlightExtractor {
    path: NodePath,
}

impl HighlightExtractor {
    /// Wraps a captured highlight.
    #[must_use]
    pub fn new(path: NodePath) -> Self {
        HighlightExtractor { path }
    }

    /// Simulates the user's highlight action: captures the node the
    /// ground-truth selector finds on *their own* rendered page.
    ///
    /// Returns `None` if the selector matches nothing (malformed page).
    #[must_use]
    pub fn from_highlight(doc: &Document, highlighted: &Selector) -> Option<Self> {
        let node = highlighted.query_first(doc)?;
        Some(HighlightExtractor {
            path: NodePath::capture(doc, node),
        })
    }

    /// The underlying node path.
    #[must_use]
    pub fn path(&self) -> &NodePath {
        &self.path
    }

    /// Extracts the price from one page copy.
    ///
    /// `locale_hint` is the locale the vantage point *expects* (derived
    /// from its country); exact locale parsing is tried first, then the
    /// generic symbol-driven parser — mirroring how $heriff handled
    /// pages that rendered an unexpected currency.
    ///
    /// # Errors
    ///
    /// See [`ExtractError`].
    pub fn extract(
        &self,
        doc: &Document,
        locale_hint: Option<Locale>,
    ) -> Result<Extracted, ExtractError> {
        let (node, strategy) = self
            .path
            .resolve_with_strategy(doc)
            .ok_or(ExtractError::NodeNotFound)?;
        let text = doc.text_content(node);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return Err(ExtractError::EmptyText);
        }
        let price = locale_hint
            .and_then(|loc| loc.parse(trimmed).ok())
            .or_else(|| parse_price_text(trimmed))
            .ok_or_else(|| ExtractError::UnparsablePrice(trimmed.to_owned()))?;
        Ok(Extracted {
            price,
            strategy,
            raw_text: trimmed.to_owned(),
        })
    }
}

/// The naive baseline: first currency-looking string in document order.
///
/// This is the approach the paper rules out — product pages "include
/// additional recommended or advertised products along with their
/// prices", and nothing guarantees the first match is the product's. The
/// extraction-robustness ablation measures its accuracy against the
/// highlight extractor on the full template corpus.
#[must_use]
pub fn extract_naive(doc: &Document) -> Option<Price> {
    for node in doc.descendants(pd_html::NodeId::ROOT) {
        if let pd_html::NodeData::Text(t) = doc.data(node) {
            // Skip script/style text: currency strings inside tracking
            // code are not prices.
            let parent_tag = doc.parent(node).and_then(|p| doc.tag(p)).unwrap_or("");
            if parent_tag == "script" || parent_tag == "style" {
                continue;
            }
            if let Some(price) = parse_price_text(t) {
                return Some(price);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_currency::Currency;
    use pd_html::parse;
    use pd_net::geo::Country;
    use pd_util::Money;

    const US_PAGE: &str = r##"
        <html><body>
          <div class="promo-banner"><em>Save $10 today!</em></div>
          <div id="product-detail">
            <h1>Camera</h1>
            <span class="price">$1,299.00</span>
          </div>
          <div class="recommendations">
            <div class="reco-card"><a href="#">Lens</a><span class="price">$24.99</span></div>
          </div>
        </body></html>"##;

    const FI_PAGE: &str = r##"
        <html><body>
          <div class="promo-banner"><em>Save $10 today!</em></div>
          <div id="product-detail">
            <h1>Camera</h1>
            <span class="price">1.234,00&nbsp;&euro;</span>
          </div>
          <div class="recommendations">
            <div class="reco-card"><a href="#">Lens</a><span class="price">23,99&nbsp;&euro;</span></div>
          </div>
        </body></html>"##;

    fn highlighter() -> HighlightExtractor {
        let doc = parse(US_PAGE);
        let sel = Selector::parse("#product-detail > span.price").unwrap();
        HighlightExtractor::from_highlight(&doc, &sel).unwrap()
    }

    #[test]
    fn extracts_from_own_page() {
        let doc = parse(US_PAGE);
        let ex = highlighter()
            .extract(&doc, Some(Locale::of_country(Country::UnitedStates)))
            .unwrap();
        assert_eq!(ex.price.amount, Money::from_minor(129_900));
        assert_eq!(ex.price.currency, Currency::Usd);
        assert_eq!(ex.raw_text, "$1,299.00");
    }

    #[test]
    fn extracts_foreign_currency_copy() {
        // The same highlight replayed on the Finnish copy parses EUR.
        let doc = parse(FI_PAGE);
        let ex = highlighter()
            .extract(&doc, Some(Locale::of_country(Country::Finland)))
            .unwrap();
        assert_eq!(ex.price.amount, Money::from_minor(123_400));
        assert_eq!(ex.price.currency, Currency::Eur);
    }

    #[test]
    fn falls_back_to_generic_parse_on_locale_mismatch() {
        // Vantage expected EUR but the retailer served USD (no
        // localization): generic parsing still recovers the price.
        let doc = parse(US_PAGE);
        let ex = highlighter()
            .extract(&doc, Some(Locale::of_country(Country::Finland)))
            .unwrap();
        assert_eq!(ex.price.currency, Currency::Usd);
        assert_eq!(ex.price.amount, Money::from_minor(129_900));
    }

    #[test]
    fn node_not_found_on_unrelated_page() {
        let doc = parse("<html><body><p>maintenance</p></body></html>");
        let err = highlighter().extract(&doc, None).unwrap_err();
        assert_eq!(err, ExtractError::NodeNotFound);
    }

    #[test]
    fn empty_text_reported() {
        let page = US_PAGE.replace("$1,299.00", "");
        let doc = parse(&page);
        let err = highlighter().extract(&doc, None).unwrap_err();
        // Empty node may also fail resolution by class/anchor; both are
        // acceptable failures, but with the anchor present it resolves.
        assert!(matches!(
            err,
            ExtractError::EmptyText | ExtractError::NodeNotFound
        ));
    }

    #[test]
    fn unparsable_price_reported() {
        let page = US_PAGE.replace("$1,299.00", "call us!");
        let doc = parse(&page);
        let err = highlighter().extract(&doc, None).unwrap_err();
        assert_eq!(err, ExtractError::UnparsablePrice("call us!".to_owned()));
    }

    #[test]
    fn naive_extractor_falls_for_the_promo() {
        // The paper's point, demonstrated: naive extraction grabs the
        // banner's $10, not the product's $1,299.
        let doc = parse(US_PAGE);
        let naive = extract_naive(&doc).unwrap();
        assert_eq!(naive.amount, Money::from_minor(1_000));
        let correct = highlighter().extract(&doc, None).unwrap();
        assert_ne!(naive.amount, correct.price.amount);
    }

    #[test]
    fn naive_extractor_skips_scripts() {
        let page = r#"<html><head><script>var px = "$9.99";</script></head>
            <body><span>$42.00</span></body></html>"#;
        let doc = parse(page);
        assert_eq!(
            extract_naive(&doc).unwrap().amount,
            Money::from_minor(4_200)
        );
    }

    #[test]
    fn naive_extractor_none_on_priceless_page() {
        let doc = parse("<html><body><p>welcome</p></body></html>");
        assert!(extract_naive(&doc).is_none());
    }

    #[test]
    fn from_highlight_none_when_selector_misses() {
        let doc = parse("<html><body></body></html>");
        let sel = Selector::parse(".price").unwrap();
        assert!(HighlightExtractor::from_highlight(&doc, &sel).is_none());
    }

    #[test]
    fn end_to_end_with_real_template() {
        // Render every pd-web template family, highlight, re-extract.
        use pd_pricing::retailer::ThirdParty;
        use pd_web::template::{price_selector, render, RenderInput};
        let input = RenderInput {
            domain: "shop.example",
            product_name: "Widget",
            price_text: "1.299,00\u{a0}€".to_owned(),
            recommended: vec![("Other".to_owned(), "9,99\u{a0}€".to_owned())],
            third_parties: &[ThirdParty::GoogleAnalytics],
            promo_text: "Save $10!".to_owned(),
        };
        for style in 0..5u8 {
            let doc = render(style, &input);
            let ex = HighlightExtractor::from_highlight(&doc, &price_selector(style))
                .unwrap()
                .extract(&doc, Some(Locale::of_country(Country::Germany)))
                .unwrap();
            assert_eq!(
                ex.price.amount,
                Money::from_minor(129_900),
                "family {style}"
            );
            assert_eq!(ex.price.currency, Currency::Eur);
        }
    }
}
