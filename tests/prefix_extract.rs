//! Prefix extraction: `HighlightExtractor::extract_html` parses a vantage
//! copy only until the highlight's anchor target has closed, and must
//! extract exactly what `extract` does on the whole parsed page — price,
//! strategy, raw text and error alike. The reference here is always a
//! full `pd_html::parse`, never another prefix parse.

use pd_currency::Locale;
use pd_extract::HighlightExtractor;
use pd_html::{parse, Selector};
use pd_net::clock::SimTime;
use pd_net::geo::Country;
use pd_net::ip::IpAllocator;
use pd_net::vantage::paper_vantage_points;
use pd_pricing::retailer::ThirdParty;
use pd_util::{Money, Seed};
use pd_web::template::{price_selector, render_html, RenderInput, FAMILY_COUNT};
use pd_web::{Request, WebWorld};
use proptest::prelude::*;

/// The countries of Fig. 7's 14 vantage points, in fleet order.
fn vantage_countries() -> Vec<Country> {
    paper_vantage_points(&mut IpAllocator::new())
        .iter()
        .map(|vp| vp.location.country)
        .collect()
}

/// The index of `USA - Boston`, the crowd user whose page is highlighted.
const USER: usize = 8;

/// A product page of family `style` as `country` sees it: the main price
/// `amount` and three recommended prices, all in the country's locale.
fn page(style: u8, country: Country, amount: i64) -> (String, String) {
    let locale = Locale::of_country(country);
    let price_text = locale.format(Money::from_minor(amount));
    let recommended = [2_499, 8_900, 1_250]
        .iter()
        .enumerate()
        .map(|(i, &minor)| {
            (
                format!("Accessory {i}"),
                locale.format(Money::from_minor(minor)),
            )
        })
        .collect();
    let input = RenderInput {
        domain: "www.shop.example",
        product_name: "Camera Nova 0042",
        price_text: price_text.clone(),
        recommended,
        third_parties: &[ThirdParty::GoogleAnalytics, ThirdParty::Facebook],
        promo_text: "Save $10 today!".to_owned(),
    };
    (render_html(style, &input), price_text)
}

/// The user's highlight on their own page of family `style`.
fn highlight(style: u8) -> HighlightExtractor {
    let (html, _) = page(style, vantage_countries()[USER], 129_900);
    HighlightExtractor::from_highlight(&parse(&html), &price_selector(style))
        .expect("every family's selector matches its page")
}

/// Prefix extraction equals full extraction on `html`, and the prefix
/// document is no larger than the whole one. Returns whether the parse
/// stopped early.
fn assert_prefix_exact(ex: &HighlightExtractor, html: &str, country: Country) -> bool {
    let hint = Some(Locale::of_country(country));
    let full = parse(html);
    assert_eq!(
        ex.extract_html(html, hint),
        ex.extract(&full, hint),
        "{country:?} on {html}"
    );
    let prefix = ex.path().parse_pooled_prefix(html);
    assert!(prefix.len() <= full.len());
    prefix.len() < full.len()
}

#[test]
fn every_family_and_vantage_country_extracts_from_a_prefix_as_from_the_whole_page() {
    for style in 0..FAMILY_COUNT {
        let ex = highlight(style);
        for (i, &country) in vantage_countries().iter().enumerate() {
            let (html, _) = page(style, country, 100_000 + 977 * i as i64);
            let stopped = assert_prefix_exact(&ex, &html, country);
            // Family 3 ("minimal") has no id to anchor on.
            assert_eq!(stopped, style != 3, "family {style}, vantage {i}");
        }
    }
}

#[test]
fn served_copies_of_every_paper_retailer_extract_from_a_prefix_as_from_the_whole_page() {
    let seed = Seed::new(1307);
    let mut world = WebWorld::build(seed, pd_pricing::paper_retailers(seed), 160);
    let vps: Vec<_> = paper_vantage_points(&mut IpAllocator::new())
        .into_iter()
        .map(|mut vp| {
            vp.addr = world.allocate_client(&vp.location);
            vp
        })
        .collect();
    let time = SimTime::from_millis(40 * 24 * 3_600_000);
    for server in world.servers() {
        let domain = server.spec().domain.as_str();
        let style = server.spec().template_style;
        for product in server.catalog().iter().take(2) {
            let path = format!("/product/{}", product.slug);
            let fetch = |i: usize| {
                let vp = &vps[i];
                let req = Request::get(domain, &path, vp.addr, time)
                    .with_header("user-agent", vp.platform.user_agent());
                world.fetch(&req).body
            };
            let ex =
                HighlightExtractor::from_highlight(&parse(&fetch(USER)), &price_selector(style))
                    .unwrap_or_else(|| panic!("{domain}{path}: highlight failed"));
            for (i, vp) in vps.iter().enumerate() {
                let stopped = assert_prefix_exact(&ex, &fetch(i), vp.location.country);
                assert_eq!(stopped, style % FAMILY_COUNT != 3, "{domain}{path} {i}");
            }
        }
    }
}

#[test]
fn the_parse_stops_early_on_every_id_anchored_family_only() {
    // The gain of prefix parsing rests on this: were the stop never to
    // fire, every copy would silently be parsed whole again.
    for style in 0..FAMILY_COUNT {
        let (html, _) = page(style, Country::Germany, 129_900);
        let ex = highlight(style);
        let prefix = ex.path().parse_pooled_prefix(&html);
        let full = parse(&html);
        if style == 3 {
            assert!(ex.path().anchor.is_none());
            assert_eq!(prefix.len(), full.len(), "family 3 is parsed whole");
        } else {
            assert!(
                prefix.len() < full.len(),
                "family {style}: {} of {} nodes",
                prefix.len(),
                full.len()
            );
        }
    }
}

/// Byte offsets of every `<` in `html` (always a char boundary).
fn tag_starts(html: &str) -> Vec<usize> {
    html.match_indices('<').map(|(i, _)| i).collect()
}

/// The start and end offsets of the target element's start tag and of
/// the end tag after `price`, if the price text is still on the page.
fn target_tags(html: &str, price: &str) -> Option<(usize, usize, usize, usize)> {
    let text = html.find(price)?;
    let open = html[..text].rfind('<')?;
    let open_end = open + html[open..].find('>')? + 1;
    let close = text + html[text..].find("</")?;
    let close_end = close + html[close..].find('>')? + 1;
    Some((open, open_end, close, close_end))
}

/// The tag name of the start tag at `html[open..]`.
fn tag_name(html: &str, open: usize) -> &str {
    let name = &html[open + 1..];
    let end = name
        .find(|c: char| c.is_ascii_whitespace() || c == '>' || c == '/')
        .unwrap_or(name.len());
    &name[..end]
}

const OTHER_TAGS: [&str; 8] = ["em", "div", "i", "p", "td", "li", "span", "strong"];
const STRAY_END: [&str; 10] = [
    "span", "div", "td", "tr", "table", "p", "li", "b", "strong", "body",
];
const STRAY_START: [&str; 8] = ["li", "p", "td", "tr", "br", "img", "span", "div"];

/// Applies mutation `kind` (with two free parameters `a` and `b`) to a
/// page whose anchor id is `id` and whose main price text is `price`.
fn mutate(html: &mut String, kind: usize, a: usize, b: usize, id: &str, price: &str) {
    let id_attr = format!(" id=\"{id}\"");
    let starts = tag_starts(html);
    let at = |n: usize| starts.get(n % starts.len().max(1)).copied().unwrap_or(0);
    match kind {
        // Drop the anchor id.
        0 => *html = html.replacen(&id_attr, "", 1),
        // An earlier element with the same id, without the target or
        // with a same-tag decoy inside.
        1 => {
            let anchor = html.find(&id_attr).unwrap_or(html.len());
            let before: Vec<usize> = starts.iter().copied().filter(|&s| s < anchor).collect();
            let pos = before.get(a % before.len().max(1)).copied().unwrap_or(0);
            let tag = target_tags(html, price).map_or("span", |t| tag_name(html, t.0));
            let copy = if b.is_multiple_of(2) {
                format!("<div id=\"{id}\"></div>")
            } else {
                format!("<div id=\"{id}\"><{tag} class=\"x\">$1.00</{tag}></div>")
            };
            html.insert_str(pos, &copy);
        }
        // Move the id onto another start tag.
        2 => {
            *html = html.replacen(&id_attr, "", 1);
            let opens: Vec<usize> = tag_starts(html)
                .into_iter()
                .filter(|&s| html[s + 1..].starts_with(|c: char| c.is_ascii_alphabetic()))
                .collect();
            if let Some(&open) = opens.get(a % opens.len().max(1)) {
                let name_end = open + 1 + tag_name(html, open).len();
                html.insert_str(name_end, &id_attr);
            }
        }
        // Same-tag siblings right before or right after the target.
        3 => {
            if let Some((open, _, _, close_end)) = target_tags(html, price) {
                let tag = tag_name(html, open).to_owned();
                let pos = if b.is_multiple_of(2) { open } else { close_end };
                for i in 0..1 + a % 3 {
                    html.insert_str(pos, &format!("<{tag}>$9.9{i}</{tag}>"));
                }
            }
        }
        // Another tag for the target.
        4 => {
            if let Some((open, _, close, close_end)) = target_tags(html, price) {
                let old = tag_name(html, open).to_owned();
                let new = OTHER_TAGS
                    .iter()
                    .copied()
                    .filter(|t| *t != old)
                    .nth(a % (OTHER_TAGS.len() - 1))
                    .expect("another tag");
                html.replace_range(close..close_end, &format!("</{new}>"));
                html.replace_range(open + 1..open + 1 + old.len(), new);
            }
        }
        // A truncated body.
        5 => {
            let mut cut = a * html.len() / 1000;
            while !html.is_char_boundary(cut) {
                cut -= 1;
            }
            html.truncate(cut);
        }
        // A stray (or early) end tag.
        6 => html.insert_str(at(a), &format!("</{}>", STRAY_END[b % STRAY_END.len()])),
        // An extra start tag: implicit closes, voids, unclosed elements.
        7 => html.insert_str(at(a), &format!("<{}>", STRAY_START[b % STRAY_START.len()])),
        // Markup inside the target, before its price text: an element
        // closes there while the target is still open.
        _ => {
            if let Some((_, open_end, ..)) = target_tags(html, price) {
                let tag = STRAY_START[b % STRAY_START.len()];
                let inner = match a % 4 {
                    0 => format!("<{tag}>"),
                    1 => format!("<{tag}/>"),
                    2 => format!("<{tag}>x</{tag}>"),
                    _ => format!("<i><{tag}>"),
                };
                html.insert_str(open_end, &inner);
            }
        }
    }
}

proptest! {
    #[test]
    fn prop_prefix_extraction_equals_full_extraction_on_mutated_copies(
        style in 0u8..5,
        vantage in 0usize..14,
        amount in 100i64..10_000_000,
        mutations in proptest::collection::vec((0usize..9, 0usize..1000, 0usize..1000), 1..4)
    ) {
        let country = vantage_countries()[vantage];
        let ex = highlight(style);
        let id = ex
            .path()
            .anchor
            .as_ref()
            .map_or("pdp-wrap", |(id, _)| id.as_str())
            .to_owned();
        let (mut html, price) = page(style, country, amount);
        for &(kind, a, b) in &mutations {
            mutate(&mut html, kind, a, b, &id, &price);
        }
        assert_prefix_exact(&ex, &html, country);
    }

    #[test]
    fn prop_prefix_extraction_equals_full_extraction_on_tag_soup(
        style in 0u8..5,
        soup in "[<>/a-z \"=!-]{0,256}",
        at in 0usize..1000
    ) {
        // Arbitrary markup spliced into a real page at a tag boundary.
        let ex = highlight(style);
        let (mut html, _) = page(style, Country::Finland, 129_900);
        let starts = tag_starts(&html);
        html.insert_str(starts[at % starts.len()], &soup);
        assert_prefix_exact(&ex, &html, Country::Finland);
    }
}

#[test]
fn an_anchor_on_the_target_itself_stops_at_its_end_tag() {
    // Empty steps: the anchor is the highlighted element.
    let own = parse(r#"<div><b id="px">$7.00</b><p>after</p></div>"#);
    let el = Selector::parse("#px").unwrap().query_first(&own).unwrap();
    let ex = HighlightExtractor::new(pd_html::NodePath::capture(&own, el));
    let copy = r#"<div><b id="px">7,00&nbsp;&euro;</b><p>after</p><p>more</p></div>"#;
    assert!(assert_prefix_exact(&ex, copy, Country::Germany));
    // The same id on an element of another tag fails over to the later
    // strategies, which need the whole page. (With steps below the
    // anchor, the last step's tag is the captured one, so only an anchor
    // that is the target itself can resolve to another tag.)
    let other = r#"<div><i id="px">7,00 €</i><b>8,00 €</b></div>"#;
    assert!(!assert_prefix_exact(&ex, other, Country::Germany));
}
