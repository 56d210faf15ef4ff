//! The two template sinks agree: for any render input and every template
//! family, the HTML the server writes directly (`render_html`) equals the
//! serialization of the built document (`render(..).to_html(ROOT)`),
//! byte for byte — including text and attribute values that need
//! escaping, entity-looking strings, no-break spaces and non-ASCII.

use pd_html::NodeId;
use pd_pricing::retailer::ThirdParty;
use pd_web::template::{render, render_html, RenderInput, FAMILY_COUNT};
use proptest::prelude::*;

fn assert_sinks_agree(input: &RenderInput<'_>) {
    for style in 0..FAMILY_COUNT {
        assert_eq!(
            render_html(style, input),
            render(style, input).to_html(NodeId::ROOT),
            "family {style}"
        );
    }
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
