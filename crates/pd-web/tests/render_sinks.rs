//! The three render paths agree: for any render input and every
//! template family, the HTML written directly (`render_html`) equals the
//! serialization of the built document (`render(..).to_html(ROOT)`),
//! and — for the server's shape, three recommended products — so does
//! the page spliced from the family's skeleton (`PageSkeleton::write`),
//! byte for byte, including text and attribute values that need
//! escaping, entity-looking strings, no-break spaces and non-ASCII.

use pd_html::NodeId;
use pd_pricing::retailer::ThirdParty;
use pd_web::template::{render, render_html, PageSkeleton, RenderInput, FAMILY_COUNT, RECOMMENDED};
use proptest::prelude::*;

fn assert_sinks_agree(input: &RenderInput<'_>) {
    for style in 0..FAMILY_COUNT {
        let html = render_html(style, input);
        assert_eq!(
            html,
            render(style, input).to_html(NodeId::ROOT),
            "family {style}"
        );
        if input.recommended.len() == RECOMMENDED {
            assert_eq!(spliced(style, input), html, "skeleton of family {style}");
        }
    }
}

/// The page the server's path writes for `input`: the family's skeleton
/// with the input's names and price texts spliced in.
fn spliced(style: u8, input: &RenderInput<'_>) -> String {
    let skeleton = PageSkeleton::new(style, input.domain, input.third_parties, &input.promo_text);
    let reco = &input.recommended;
    let prices = [&input.price_text, &reco[0].1, &reco[1].1, &reco[2].1];
    skeleton.write(
        [input.product_name, &reco[0].0, &reco[1].0, &reco[2].0],
        |i, out| out.push_str(prices[i]),
    )
}

#[test]
fn entities_in_names_and_prices_render_identically() {
    let input = RenderInput {
        domain: "shop&amp;co.example",
        product_name: "Tom &amp; Jerry's \"Deluxe\" <Box> &euro;",
        price_text: "1.299,00\u{a0}€ &#8364;".to_owned(),
        recommended: vec![
            ("A & B".to_owned(), "&lt;9,99\u{a0}€".to_owned()),
            ("ほげ".to_owned(), "¥1,235".to_owned()),
        ],
        third_parties: &ThirdParty::ALL,
        promo_text: "Save $10 on orders > $100 & more!".to_owned(),
    };
    assert_sinks_agree(&input);
}

#[test]
fn escaping_name_fills_text_and_attribute_slots_identically() {
    // Family 2 writes the product name into `img alt` (an entity-decoded
    // attribute value) as well as into text nodes.
    let names = [
        "Tom &amp; Jerry's \"Deluxe\" <Box>\u{a0}ほげ café &euro;",
        "&amp;",
        "",
        "&lt;&gt;",
    ];
    for name in names {
        let input = RenderInput {
            domain: "www.shop.example",
            product_name: name,
            price_text: "1.299,00\u{a0}€".to_owned(),
            recommended: vec![
                (name.to_owned(), "$1".to_owned()),
                ("A & B".to_owned(), "<2>".to_owned()),
                ("\u{a0}".to_owned(), String::new()),
            ],
            third_parties: &ThirdParty::ALL,
            promo_text: "Save $10 today!".to_owned(),
        };
        assert_sinks_agree(&input);
        let page = spliced(2, &input);
        assert!(page.contains("<img src=\"/img/product.jpg\" alt"), "{page}");
    }
}

proptest! {
    #[test]
    fn prop_string_sink_matches_document_serialization(
        domain in "\\PC{0,24}",
        name in "[&<>\"' a-z;#0-9é€\u{a0}]{0,24}",
        price in "\\PC{0,16}",
        recommended in proptest::collection::vec(
            ("\\PC{0,12}", "[&<>\"'0-9,.€$\u{a0}]{0,10}"),
            0..4,
        ),
        promo in "\\PC{0,32}",
        third_parties in 0usize..6,
    ) {
        let input = RenderInput {
            domain: &domain,
            product_name: &name,
            price_text: price,
            recommended,
            third_parties: &ThirdParty::ALL[..third_parties],
            promo_text: promo,
        };
        assert_sinks_agree(&input);
    }
}

proptest! {
    #[test]
    fn prop_skeleton_matches_both_sinks(
        domain in "\\PC{0,24}",
        name in "[&<>\"' a-z;#0-9é€\u{a0}]{0,24}",
        price in "\\PC{0,16}",
        recommended in proptest::collection::vec(
            ("\\PC{0,12}", "[&<>\"'0-9,.€$\u{a0}]{0,10}"),
            RECOMMENDED,
        ),
        promo in "\\PC{0,32}",
        third_parties in 0usize..6,
    ) {
        let input = RenderInput {
            domain: &domain,
            product_name: &name,
            price_text: price,
            recommended,
            third_parties: &ThirdParty::ALL[..third_parties],
            promo_text: promo,
        };
        assert_sinks_agree(&input);
    }
}
