//! The five product-page template families.
//!
//! "Different retailers have different web templates for presenting their
//! products. Extracting the price of a product from an unknown template is
//! non-trivial: a simple search for dollar or euro sign would fail since
//! typically product pages include additional recommended or advertised
//! products along with their prices." (Sec. 2.2)
//!
//! Each family therefore renders, besides the product price:
//!
//! * three **recommended products** with their own prices, often sharing
//!   the main price's class name,
//! * a **promo banner** containing a literal dollar amount ("Save $10
//!   today!"),
//! * **third-party tags** (analytics scripts, social widgets) for the
//!   Sec. 4.4 presence scan,
//! * structural differences per family: id-anchored boxes, tables,
//!   class-only markup, and deeply nested widgets.
//!
//! Each family is written once against [`HtmlSink`]: [`render`] builds it
//! into a [`Document`], [`render_html`] writes the same page straight to
//! HTML text, and the two agree byte for byte.
//!
//! Of a page's strings only eight change from one product page of a
//! retailer to the next: the product name, three recommended names and
//! the four price texts. [`PageSkeleton`] renders a retailer's family
//! once with placeholders for those eight, through the same template
//! code, and then writes each page by splicing the names and prices
//! into the fixed runs — the server's path, equal to [`render_html`] of
//! the same input.
//!
//! [`price_selector`] returns the family's ground-truth selector for the
//! main price node — used only to *simulate the user's highlight*, never
//! by the extraction pipeline itself.

use pd_html::{
    has_placeholder, placeholder, write_page, DocBuilder, Document, HtmlSink, HtmlWriter, Selector,
    Skeleton, SkeletonWriter,
};
use pd_pricing::retailer::ThirdParty;

/// Everything a template needs to render one product page.
#[derive(Debug, Clone)]
pub struct RenderInput<'a> {
    /// Retailer domain (rendered into the header/title).
    pub domain: &'a str,
    /// Product display name.
    pub product_name: &'a str,
    /// Fully formatted localized price text, e.g. `"1.299,00 €"`.
    pub price_text: String,
    /// Recommended products: (name, formatted price) pairs.
    pub recommended: Vec<(String, String)>,
    /// Third-party tags to embed.
    pub third_parties: &'a [ThirdParty],
    /// Promo banner text (contains a literal dollar amount).
    pub promo_text: String,
}

/// Number of template families.
pub const FAMILY_COUNT: u8 = 5;

/// Renders a product page in the given template family (`style % 5`).
#[must_use]
pub fn render(style: u8, input: &RenderInput<'_>) -> Document {
    let mut builder = DocBuilder::new();
    render_into(style, input, &mut builder);
    builder.finish()
}

/// Renders the same page as [`render`] directly as HTML text: equal to
/// `render(style, input).to_html(NodeId::ROOT)`, without building the
/// tree.
#[must_use]
pub fn render_html(style: u8, input: &RenderInput<'_>) -> String {
    let mut writer = HtmlWriter::with_capacity(page_capacity(input));
    render_into(style, input, &mut writer);
    writer.finish()
}

/// Writes the page of family `style % 5` into any sink.
fn render_into<S: HtmlSink>(style: u8, input: &RenderInput<'_>, sink: &mut S) {
    let body: fn(&mut S, &RenderInput<'_>) = match style % FAMILY_COUNT {
        0 => render_classic,
        1 => render_table,
        2 => render_buybox,
        3 => render_minimal,
        _ => render_cluttered,
    };
    write_page(sink, |h| head(h, input), |b| body(b, input));
}

/// Recommended products on a served page.
pub const RECOMMENDED: usize = 3;

/// Skeleton slots `0..=RECOMMENDED` are the product name and the
/// recommended names; the next `1 + RECOMMENDED` are their price texts,
/// in the same order.
const NAMES: usize = 1 + RECOMMENDED;

/// Room reserved per price text when sizing a page.
const PRICE_BYTES: usize = 24;

/// One retailer's product page with its per-page strings left out: the
/// template family rendered once for the retailer's domain, third
/// parties and promo, with slots for the product name, the recommended
/// names and the four price texts.
#[derive(Debug, Clone)]
pub struct PageSkeleton {
    skeleton: Skeleton,
}

impl PageSkeleton {
    /// Renders family `style % 5` once, with placeholders for the
    /// per-page strings.
    ///
    /// # Panics
    ///
    /// Panics if `domain` or `promo_text` holds a placeholder character
    /// (Unicode private use, see [`pd_html::placeholder`]).
    #[must_use]
    pub fn new(style: u8, domain: &str, third_parties: &[ThirdParty], promo_text: &str) -> Self {
        assert!(
            !has_placeholder(domain) && !has_placeholder(promo_text),
            "page strings may not hold skeleton placeholders"
        );
        let slot = |s: usize| placeholder(s).to_string();
        let product_name = slot(0);
        let input = RenderInput {
            domain,
            product_name: &product_name,
            price_text: slot(NAMES),
            recommended: (1..NAMES).map(|k| (slot(k), slot(NAMES + k))).collect(),
            third_parties,
            promo_text: promo_text.to_owned(),
        };
        let mut recorder = SkeletonWriter::with_capacity(page_capacity(&input));
        render_into(style, &input, &mut recorder);
        PageSkeleton {
            skeleton: recorder.finish(),
        }
    }

    /// Writes one page: `names` are the product's then the recommended
    /// products' display names, and `price(i, out)` appends the price
    /// text of the same `i`-th product (`0` is the main price). Equal to
    /// [`render_html`] of the input holding those strings.
    #[must_use]
    pub fn write(&self, names: [&str; NAMES], mut price: impl FnMut(usize, &mut String)) -> String {
        let slot_bytes: usize = self
            .skeleton
            .slots()
            .map(|slot| names.get(slot).map_or(PRICE_BYTES, |name| name.len()))
            .sum();
        // The slack covers attribute quotes and a little escaping.
        let mut out = String::with_capacity(self.skeleton.fixed_len() + slot_bytes + 32);
        self.skeleton
            .splice(&mut out, |slot, out| match names.get(slot) {
                Some(name) => out.push_str(name),
                None => price(slot - NAMES, out),
            });
        out
    }
}

/// Output buffer size for one page: the fixed markup of the largest
/// family plus room for every input string written (some twice, some
/// escaped).
fn page_capacity(input: &RenderInput<'_>) -> usize {
    let strings = 2 * input.domain.len()
        + 3 * input.product_name.len()
        + input.price_text.len()
        + input.promo_text.len()
        + input
            .recommended
            .iter()
            .map(|(name, price)| name.len() + price.len())
            .sum::<usize>();
    768 + 64 * input.third_parties.len() + 2 * strings
}

/// Ground-truth selector for the *main* price node of a family.
///
/// # Panics
///
/// Never — all five selectors are statically valid (tested).
#[must_use]
pub fn price_selector(style: u8) -> Selector {
    let src = match style % FAMILY_COUNT {
        0 => "#product-detail > span.price",
        1 => "#offer-table td.product-price",
        2 => "#buybox > b.amount",
        3 => "div.pdp-wrap > p.cost",
        _ => "#main .price-widget > strong",
    };
    Selector::parse(src).expect("static selector is valid")
}

fn head(b: &mut impl HtmlSink, input: &RenderInput<'_>) {
    b.text_element(
        "title",
        &[],
        &format!("{} — {}", input.product_name, input.domain),
    );
    b.leaf("meta", &[("charset", "utf-8")]);
    for tp in input.third_parties {
        match tp {
            ThirdParty::GoogleAnalytics | ThirdParty::DoubleClick | ThirdParty::Twitter => {
                b.open(
                    "script",
                    &[
                        ("src", &format!("http://{}/t.js", tp.host())),
                        ("async", ""),
                    ],
                );
                b.close();
            }
            ThirdParty::Facebook | ThirdParty::Pinterest => {
                b.leaf(
                    "img",
                    &[
                        ("src", &format!("http://{}/w.png", tp.host())),
                        ("width", "1"),
                        ("height", "1"),
                    ],
                );
            }
        }
    }
}

fn promo(b: &mut impl HtmlSink, input: &RenderInput<'_>) {
    b.open("div", &[("class", "promo-banner")]);
    b.text_element("em", &[], &input.promo_text);
    b.close();
}

fn recommendations(b: &mut impl HtmlSink, input: &RenderInput<'_>, price_class: &str) {
    b.open("div", &[("class", "recommendations")]);
    b.text_element("h3", &[], "Customers also viewed");
    for (name, price) in &input.recommended {
        b.open("div", &[("class", "reco-card")]);
        b.text_element("a", &[("href", "#")], name);
        // Same class as the main price — the naive extractor's trap.
        b.text_element("span", &[("class", price_class)], price);
        b.close();
    }
    b.close();
}

/// Family 0 — "classic": id-anchored product box, `span.price`.
fn render_classic(b: &mut impl HtmlSink, input: &RenderInput<'_>) {
    b.open("div", &[("class", "header")]);
    b.text_element("a", &[("href", "/")], input.domain);
    b.close();
    promo(b, input);
    b.open("div", &[("id", "product-detail"), ("class", "product")]);
    b.text_element("h1", &[], input.product_name);
    b.text_element("span", &[("class", "price")], &input.price_text);
    b.text_element("button", &[("class", "add-to-cart")], "Add to cart");
    b.close();
    recommendations(b, input, "price");
    b.comment(" rendered by shopkit 2.3 ");
}

/// Family 1 — "table": offer table with a `td.product-price`.
fn render_table(b: &mut impl HtmlSink, input: &RenderInput<'_>) {
    promo(b, input);
    b.open("table", &[("id", "offer-table")]);
    b.open("tr", &[]);
    b.text_element("th", &[], "Item");
    b.text_element("th", &[], "Price");
    b.close();
    b.open("tr", &[]);
    b.text_element("td", &[("class", "product-name")], input.product_name);
    b.text_element("td", &[("class", "product-price")], &input.price_text);
    b.close();
    b.close();
    recommendations(b, input, "product-price");
}

/// Family 2 — "buybox": modern PDP with an id-anchored buy box.
fn render_buybox(b: &mut impl HtmlSink, input: &RenderInput<'_>) {
    b.open("div", &[("class", "pdp")]);
    b.open("div", &[("class", "gallery")]);
    b.leaf(
        "img",
        &[("src", "/img/product.jpg"), ("alt", input.product_name)],
    );
    b.close();
    b.open("div", &[("id", "buybox"), ("class", "buy-box")]);
    b.text_element("h2", &[], input.product_name);
    b.text_element("b", &[("class", "amount")], &input.price_text);
    b.text_element("small", &[("class", "vat-note")], "excl. shipping");
    b.close();
    b.close();
    promo(b, input);
    recommendations(b, input, "amount");
}

/// Family 3 — "minimal": no ids anywhere; class-signature extraction.
fn render_minimal(b: &mut impl HtmlSink, input: &RenderInput<'_>) {
    b.open("div", &[("class", "pdp-wrap")]);
    b.text_element("h1", &[], input.product_name);
    b.text_element("p", &[("class", "cost")], &input.price_text);
    b.close();
    promo(b, input);
    recommendations(b, input, "reco-cost");
}

/// Family 4 — "cluttered": deeply nested widget with label noise.
fn render_cluttered(b: &mut impl HtmlSink, input: &RenderInput<'_>) {
    promo(b, input);
    b.open("div", &[("id", "main")]);
    b.open("div", &[("class", "col col-left")]);
    b.text_element("strong", &[], "Today's deals");
    b.close();
    b.open("div", &[("class", "col col-main")]);
    b.text_element("h1", &[], input.product_name);
    b.open("div", &[("class", "widget price-widget")]);
    b.text_element("span", &[("class", "label")], "Our price:");
    b.text_element("strong", &[], &input.price_text);
    b.close();
    b.close();
    b.close();
    recommendations(b, input, "deal-price");
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_html::{parse, NodeId};

    fn input() -> RenderInput<'static> {
        RenderInput {
            domain: "www.shop.example",
            product_name: "Camera Nova 0042",
            price_text: "$1,299.00".to_owned(),
            recommended: vec![
                ("Lens A".to_owned(), "$24.99".to_owned()),
                ("Bag B".to_owned(), "$89.00".to_owned()),
                ("Card C".to_owned(), "$12.50".to_owned()),
            ],
            third_parties: &[
                ThirdParty::GoogleAnalytics,
                ThirdParty::Facebook,
                ThirdParty::Pinterest,
            ],
            promo_text: "Save $10 today!".to_owned(),
        }
    }

    #[test]
    fn every_family_contains_exactly_one_main_price() {
        for style in 0..FAMILY_COUNT {
            let doc = render(style, &input());
            let sel = price_selector(style);
            let hits = sel.query_all(&doc);
            assert_eq!(hits.len(), 1, "family {style}");
            assert_eq!(doc.text_content(hits[0]), "$1,299.00", "family {style}");
        }
    }

    #[test]
    fn every_family_survives_reparse() {
        // Render → serialize → parse → select: the full pipeline the
        // vantage points exercise.
        for style in 0..FAMILY_COUNT {
            let html = render(style, &input()).to_html(NodeId::ROOT);
            let doc = parse(&html);
            let hits = price_selector(style).query_all(&doc);
            assert_eq!(hits.len(), 1, "family {style}");
            assert_eq!(doc.text_content(hits[0]), "$1,299.00");
        }
    }

    #[test]
    fn recommended_prices_are_decoys() {
        // Each page carries ≥4 price-looking strings; only one is the
        // product's. This is the paper's challenge (i) in miniature.
        for style in 0..FAMILY_COUNT {
            let html = render(style, &input()).to_html(NodeId::ROOT);
            let dollar_count = html.matches('$').count();
            assert!(dollar_count >= 4, "family {style}: {dollar_count} prices");
        }
    }

    #[test]
    fn third_party_tags_present() {
        for style in 0..FAMILY_COUNT {
            let html = render(style, &input()).to_html(NodeId::ROOT);
            assert!(html.contains("www.google-analytics.com"), "family {style}");
            assert!(html.contains("connect.facebook.net"), "family {style}");
            assert!(html.contains("assets.pinterest.com"), "family {style}");
            assert!(!html.contains("ad.doubleclick.net"), "family {style}");
        }
    }

    #[test]
    fn families_are_structurally_distinct() {
        let htmls: Vec<String> = (0..FAMILY_COUNT)
            .map(|s| render(s, &input()).to_html(NodeId::ROOT))
            .collect();
        for i in 0..htmls.len() {
            for j in i + 1..htmls.len() {
                assert_ne!(htmls[i], htmls[j], "families {i} and {j} identical");
            }
        }
    }

    #[test]
    fn style_wraps_modulo_family_count() {
        let a = render(0, &input()).to_html(NodeId::ROOT);
        let b = render(5, &input()).to_html(NodeId::ROOT);
        assert_eq!(a, b);
        assert_eq!(price_selector(0).source(), price_selector(5).source());
    }

    #[test]
    fn localized_price_text_renders_verbatim() {
        let mut inp = input();
        inp.price_text = "1.199,00\u{a0}€".to_owned();
        for style in 0..FAMILY_COUNT {
            let doc = render(style, &inp);
            let hit = price_selector(style).query_first(&doc).unwrap();
            assert_eq!(doc.text_content(hit), "1.199,00\u{a0}€");
        }
    }
}
