//! Prefix extraction: `NodePath::parse_pooled_prefix` and
//! `NodePath::parse_prefix_after` parse a vantage copy only until the
//! highlight's anchor target has closed, and extraction from it must
//! extract exactly what `extract` does on the whole parsed page — price,
//! strategy, raw text and error alike. The reference for an extraction
//! is always a full `pd_html::parse`, never another prefix parse.
//!
//! Resumed parses: a `LastParse` rolls the previous copy's document back
//! to the last checkpoint inside the bytes two copies share and parses
//! the rest. The resumed document must equal (`==`, the whole arena) a
//! fresh `NodePath::parse_pooled_prefix` of the same body, and extract
//! like the whole page. A `LastParse` also parses whole pages
//! (`LastParse::parse_whole`, equal to a fresh `parse`), and whole and
//! prefix parses may alternate through it.

use pd_currency::Locale;
use pd_extract::HighlightExtractor;
use pd_html::{parse, LastParse, Selector};
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
    let prefix = ex.path().parse_pooled_prefix(html);
    assert_eq!(
        ex.extract(&prefix, hint),
        ex.extract(&full, hint),
        "{country:?} on {html}"
    );
    assert!(prefix.len() <= full.len());
    prefix.len() < full.len()
}

/// Parses `html` into `last`, resuming from the copy it parsed before:
/// the document equals a fresh prefix parse of `html`, and extraction
/// from a parse through `last` gives what the whole page does.
/// Returns whether the parse resumed.
fn assert_resumed_exact(
    ex: &HighlightExtractor,
    last: &mut LastParse,
    html: &str,
    country: Country,
) -> bool {
    let before = last.resumed();
    let resumed = ex.path().parse_prefix_after(html, last).clone();
    let did_resume = last.resumed() > before;
    assert_eq!(
        resumed,
        *ex.path().parse_pooled_prefix(html),
        "resumed parse differs on {html}"
    );
    let hint = Some(Locale::of_country(country));
    // Once more through the extractor: the same bytes again, so the
    // resumed parse starts at the last checkpoint of this very copy.
    assert_eq!(
        ex.extract(ex.path().parse_prefix_after(html, last), hint),
        ex.extract(&parse(html), hint),
        "{country:?} on {html}"
    );
    did_resume
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
fn every_family_resumes_each_later_vantage_copy_and_builds_the_fresh_document() {
    for style in 0..FAMILY_COUNT {
        let ex = highlight(style);
        let mut last = LastParse::new();
        for (i, &country) in vantage_countries().iter().enumerate() {
            let (html, _) = page(style, country, 100_000 + 977 * i as i64);
            let resumed = assert_resumed_exact(&ex, &mut last, &html, country);
            // The copies are one page up to the main price, family 3
            // ("minimal", parsed whole) included.
            assert_eq!(resumed, i > 0, "family {style}, vantage {i}");
        }
        // Each copy was parsed twice: once for the document, once for the
        // extraction.
        assert_eq!(last.resumed(), 2 * 14 - 1, "family {style}");
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
            let mut last = LastParse::new();
            for (i, vp) in vps.iter().enumerate() {
                let copy = fetch(i);
                let stopped = assert_prefix_exact(&ex, &copy, vp.location.country);
                assert_eq!(stopped, style % FAMILY_COUNT != 3, "{domain}{path} {i}");
                assert_resumed_exact(&ex, &mut last, &copy, vp.location.country);
            }
            assert!(last.resumed() >= 14, "{domain}{path}: {}", last.resumed());
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

/// Places inside a page where two copies can first differ, each marked
/// `|`: the copies fill the mark with different strings.
const SPOTS: [&str; 10] = [
    // Mid-tag.
    r#"<di|v class="a">x</div>"#,
    // Mid-attribute value.
    r#"<span title="ab|cd">y</span>"#,
    // Mid-entity.
    "<b>&eu|ro;5</b>",
    // Inside a comment.
    "<!-- co|mment -->",
    // Inside `<script>` raw text.
    r#"<script>var a = "<d|iv>";</script>"#,
    // At a `<` that a non-letter may follow.
    "<p>a <| 3</p>",
    // Inside implicit-close runs.
    "<ul><li>a<li>b|<li>c</ul>",
    "<p>x<p>y|<p>z",
    "<table><tr><td>1<td>2|<td>3</table>",
    // A doctype inside the page, which goes to the root.
    "<!doctype h|tml><i>d</i>",
];

/// The two bodies of case `kind`: a page of family `style` from `country`
/// at 129,900 minor units and at `amount2` (the same amount: the copies
/// differ only at the spot; another: at the price too), differing at a
/// spot chosen by `kind` and `at`, filled with `fill1` and `fill2`.
fn differing_bodies(
    style: u8,
    country: Country,
    amount2: i64,
    kind: usize,
    at: usize,
    (fill1, fill2): (&str, &str),
) -> (String, String) {
    let (page1, _) = page(style, country, 129_900);
    let (page2, _) = page(style, country, amount2);
    let boundary = |html: &str, mut p: usize| {
        p %= html.len() + 1;
        while !html.is_char_boundary(p) {
            p -= 1;
        }
        p
    };
    let splice = |html: &str, p: usize, fill: &str| {
        let mut out = html.to_owned();
        out.insert_str(p, fill);
        out
    };
    match kind {
        // A spot spliced in at a tag boundary.
        k if k < SPOTS.len() => {
            let starts = tag_starts(&page1);
            let p = starts[at % starts.len()];
            let spot = |fill: &str| SPOTS[k].replace('|', fill);
            (
                splice(&page1, p, &spot(fill1)),
                splice(&page2, p, &spot(fill2)),
            )
        }
        // Anywhere in the page.
        10 => {
            let p = boundary(&page1, at);
            (splice(&page1, p, fill1), splice(&page2, p, fill2))
        }
        // Before the anchor id.
        11 => {
            let id = page1.find(" id=").unwrap_or(page1.len());
            let p = boundary(&page1, at % (id + 1));
            (splice(&page1, p, fill1), splice(&page2, p, fill2))
        }
        // At byte 0.
        12 => (splice(&page1, 0, fill1), splice(&page2, 0, fill2)),
        // Nowhere: the same bytes twice.
        13 => (page1.clone(), page1),
        // One body a prefix of the other, either way round.
        _ => {
            let cut = boundary(&page1, at);
            let short = page1[..cut].to_owned();
            if at.is_multiple_of(2) {
                (short, page1)
            } else {
                (page1, short)
            }
        }
    }
}

proptest! {
    #[test]
    fn prop_resumed_parse_equals_a_fresh_parse_wherever_two_copies_differ(
        style in 0u8..5,
        vantage in 0usize..14,
        amount2 in 129_800i64..130_000,
        kind in 0usize..15,
        at in 0usize..4000,
        fill1 in "[<>/a-z \"'=!&;#?€-]{0,6}",
        fill2 in "[<>/a-z \"'=!&;#?€-]{0,6}"
    ) {
        let country = vantage_countries()[vantage];
        let ex = highlight(style);
        let (first, second) =
            differing_bodies(style, country, amount2, kind, at, (&fill1, &fill2));
        let mut last = LastParse::new();
        // First copy, second copy, then back to the first.
        assert_resumed_exact(&ex, &mut last, &first, country);
        assert_resumed_exact(&ex, &mut last, &second, country);
        assert_resumed_exact(&ex, &mut last, &first, country);
    }
}

#[test]
fn a_resumed_parse_equals_a_fresh_one_at_every_first_differing_byte() {
    // Every char boundary of a family 0 and a family 3 page, with markup
    // that changes how the bytes around it tokenize.
    for style in [0, 3] {
        let ex = highlight(style);
        let (base, _) = page(style, Country::Germany, 129_900);
        let mut last = LastParse::new();
        for p in (0..=base.len()).filter(|&p| base.is_char_boundary(p)) {
            for fill in ["<", "\"", "-"] {
                let mut copy = base.clone();
                copy.insert_str(p, fill);
                assert_resumed_exact(&ex, &mut last, &base, Country::Germany);
                assert_resumed_exact(&ex, &mut last, &copy, Country::Germany);
            }
        }
    }
}

#[test]
fn a_resumed_parse_equals_a_fresh_one_when_one_copy_is_cut_short_anywhere() {
    // A copy that ends inside a tag, an attribute value or a comment ran
    // its last token into the end of input: resuming the whole page from
    // there would read that token differently.
    for style in [0, 3] {
        let ex = highlight(style);
        let (whole, _) = page(style, Country::Finland, 129_900);
        let mut last = LastParse::new();
        for cut in (0..=whole.len()).filter(|&p| whole.is_char_boundary(p)) {
            let short = &whole[..cut];
            assert_resumed_exact(&ex, &mut last, short, Country::Finland);
            assert_resumed_exact(&ex, &mut last, &whole, Country::Finland);
            assert_resumed_exact(&ex, &mut last, short, Country::Finland);
        }
    }
}

#[test]
fn every_spot_resumes_to_the_fresh_document_for_every_fill() {
    let fills = [
        "",
        "x",
        "<",
        ">",
        "/",
        "!",
        "&",
        ";",
        "\"",
        "-->",
        "</script>",
        "<li>",
        "€",
        " ",
    ];
    for style in [0, 3] {
        let ex = highlight(style);
        for kind in 0..SPOTS.len() {
            for at in [0, 7, 19] {
                for fill in fills {
                    let (first, second) =
                        differing_bodies(style, Country::Spain, 129_900, kind, at, ("x", fill));
                    let mut last = LastParse::new();
                    assert_resumed_exact(&ex, &mut last, &first, Country::Spain);
                    assert_resumed_exact(&ex, &mut last, &second, Country::Spain);
                }
            }
        }
    }
}

/// Parses `html` whole through `last`: the document equals a fresh
/// `parse`.
fn assert_whole_exact(last: &mut LastParse, html: &str) {
    assert_eq!(
        *last.parse_whole(html),
        parse(html),
        "whole parse differs on {html}"
    );
}

#[test]
fn whole_and_prefix_parses_alternate_through_one_last_parse() {
    // A scope reads a crowd user's own copy (and every probe copy) whole
    // and the vantage copies up to the anchor. A whole parse passes the
    // checkpoints after the anchor target, which a prefix parse never
    // reaches, and leaves the anchor memo of another document behind.
    for style in 0..FAMILY_COUNT {
        let ex = highlight(style);
        let countries = vantage_countries();
        for kind in [0, 4, 6, 10, 11, 13, 14] {
            for at in [5, 400, 1900] {
                let (first, second) = differing_bodies(
                    style,
                    countries[at % countries.len()],
                    129_950,
                    kind,
                    at,
                    ("<i>", "x"),
                );
                let mut last = LastParse::new();
                // Whole, prefix, whole, prefix, over both bodies and each
                // body after itself.
                for (whole, prefix) in [
                    (&first, &second),
                    (&second, &first),
                    (&first, &first),
                    (&second, &second),
                ] {
                    assert_whole_exact(&mut last, whole);
                    assert_resumed_exact(&ex, &mut last, prefix, Country::Spain);
                }
            }
        }
    }
}

#[test]
fn each_vantage_copy_resumes_from_the_users_whole_copy() {
    // The crowd's order: the user's own copy whole, then every vantage
    // copy up to the anchor, then (another check's scope in miniature)
    // the whole copy again.
    for style in 0..FAMILY_COUNT {
        let ex = highlight(style);
        let countries = vantage_countries();
        let (own, _) = page(style, countries[USER], 129_900);
        for (i, &country) in countries.iter().enumerate() {
            let mut last = LastParse::new();
            assert_whole_exact(&mut last, &own);
            // The user's own bytes and another vantage's copy.
            let (copy, _) = page(style, country, 100_000 + 977 * i as i64);
            for html in [&own, &copy] {
                assert!(
                    assert_resumed_exact(&ex, &mut last, html, country),
                    "family {style}, vantage {i}"
                );
                assert_whole_exact(&mut last, &own);
            }
        }
    }
}
