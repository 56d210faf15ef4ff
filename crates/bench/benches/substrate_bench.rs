//! Substrate micro-benchmarks: the building blocks every check runs
//! through. One synchronized check costs 14 × (render + serialize +
//! parse + resolve + parse-price); these benches keep each stage honest.

use criterion::{criterion_group, criterion_main, Criterion};
use pd_currency::{FxSeries, Locale};
use pd_extract::HighlightExtractor;
use pd_html::{parse, LastParse, NodeId, Selector};
use pd_net::clock::SimTime;
use pd_net::geo::{Country, Location};
use pd_pricing::quote::QuoteContext;
use pd_pricing::{paper_retailers, Catalog, Category, PricingEngine};
use pd_util::{Money, Seed};
use pd_web::template::{price_selector, render, render_html, RenderInput};
use pd_web::{Request, RetailerServer, WebWorld};
use std::hint::black_box;

fn sample_input() -> RenderInput<'static> {
    RenderInput {
        domain: "www.bench.example",
        product_name: "Camera Nova 0042",
        price_text: "1.299,00\u{a0}€".to_owned(),
        recommended: vec![
            ("Lens".to_owned(), "24,99\u{a0}€".to_owned()),
            ("Bag".to_owned(), "89,00\u{a0}€".to_owned()),
            ("Card".to_owned(), "12,50\u{a0}€".to_owned()),
        ],
        third_parties: &[
            pd_pricing::retailer::ThirdParty::GoogleAnalytics,
            pd_pricing::retailer::ThirdParty::Facebook,
        ],
        promo_text: "Save $10 today!".to_owned(),
    }
}

fn sample_page() -> String {
    render(0, &sample_input()).to_html(NodeId::ROOT)
}

fn bench_html(c: &mut Criterion) {
    let html = sample_page();
    let doc = parse(&html);
    let sel = Selector::parse("#product-detail > span.price").unwrap();

    let mut g = c.benchmark_group("html");
    g.bench_function("tokenize_and_parse_product_page", |b| {
        b.iter(|| black_box(parse(&html)).len());
    });
    g.bench_function("serialize_product_page", |b| {
        b.iter(|| black_box(doc.to_html(NodeId::ROOT)).len());
    });
    g.bench_function("selector_query", |b| {
        b.iter(|| black_box(sel.query_all(&doc)).len());
    });
    // Extraction from the HTML text of a vantage copy: parsed whole, or
    // only as far as the highlight's anchor target. Family 0 is anchored
    // on `#product-detail` and stops early; family 3 has no id, so its
    // prefix parse is the whole page and the two cases should tie.
    // Resumed: two copies that differ in their price alternate through
    // one `LastParse`, so every extraction resumes the parse of the
    // other copy after the bytes they share, as a check's later copies do.
    for style in [0, 3] {
        let page = render_html(style, &sample_input());
        let other = render_html(
            style,
            &RenderInput {
                price_text: "1.199,00\u{a0}€".to_owned(),
                ..sample_input()
            },
        );
        let own = parse(&page);
        let ex = HighlightExtractor::from_highlight(&own, &price_selector(style)).unwrap();
        let hint = Some(Locale::of_country(Country::Germany));
        g.bench_function(&format!("extract_full_parse_family_{style}"), |b| {
            b.iter(|| black_box(ex.extract(&pd_html::parse_pooled(&page), hint).unwrap()));
        });
        g.bench_function(&format!("extract_prefix_parse_family_{style}"), |b| {
            b.iter(|| {
                black_box(
                    ex.extract(&ex.path().parse_pooled_prefix(&page), hint)
                        .unwrap(),
                )
            });
        });
        let mut last = LastParse::new();
        let mut copies = [&page, &other].into_iter().cycle();
        g.bench_function(&format!("extract_resumed_family_{style}"), |b| {
            b.iter(|| {
                let copy = copies.next().expect("cycles forever");
                black_box(
                    ex.extract(ex.path().parse_prefix_after(copy, &mut last), hint)
                        .unwrap(),
                )
            });
        });
    }
    g.bench_function("highlight_capture_and_resolve", |b| {
        let ex = HighlightExtractor::from_highlight(&doc, &sel).unwrap();
        b.iter(|| {
            black_box(
                ex.extract(&doc, Some(Locale::of_country(Country::Germany)))
                    .unwrap()
                    .price,
            )
        });
    });
    g.finish();
}

fn bench_currency(c: &mut Criterion) {
    let fx = FxSeries::generate(Seed::new(1307), 160);
    let de = Locale::of_country(Country::Germany);
    let us = Locale::of_country(Country::UnitedStates);
    let prices = [
        pd_currency::Price::new(Money::from_minor(123_456), pd_currency::Currency::Eur),
        pd_currency::Price::new(Money::from_minor(130_000), pd_currency::Currency::Usd),
        pd_currency::Price::new(Money::from_minor(99_999), pd_currency::Currency::Gbp),
    ];

    let mut g = c.benchmark_group("currency");
    g.bench_function("fx_series_generation_160d", |b| {
        b.iter(|| black_box(FxSeries::generate(Seed::new(1307), 160)).days());
    });
    g.bench_function("locale_format", |b| {
        b.iter(|| black_box(de.format(Money::from_minor(123_456))));
    });
    g.bench_function("locale_parse_exact", |b| {
        let text = de.format(Money::from_minor(123_456));
        b.iter(|| black_box(de.parse(&text).unwrap()));
    });
    g.bench_function("generic_price_parse", |b| {
        b.iter(|| black_box(pd_extract::parse_price_text("1.234,56\u{a0}€").unwrap()));
    });
    g.bench_function("band_filter_14_prices", |b| {
        let mut p14 = Vec::new();
        for i in 0..14 {
            p14.push(if i % 3 == 0 { prices[0] } else { prices[1] });
        }
        b.iter(|| black_box(pd_currency::band_filter(&fx, &p14, 10)));
    });
    let _ = us;
    g.finish();
}

fn bench_pricing_and_web(c: &mut Criterion) {
    let seed = Seed::new(1307);
    let catalog = Catalog::generate(seed, &[Category::Photography], 200);
    let specs = paper_retailers(seed);
    let digitalrev = specs
        .iter()
        .find(|r| r.domain == "www.digitalrev.com")
        .unwrap();
    let engine = PricingEngine::new(seed, digitalrev.components.clone());
    let ctx = QuoteContext::anonymous(
        Location::new(Country::Finland, "Tampere"),
        SimTime::from_millis(12 * 24 * 3_600_000),
    );

    let mut g = c.benchmark_group("pricing_web");
    g.bench_function("quote", |b| {
        let product = catalog.iter().next().unwrap();
        b.iter(|| black_box(engine.quote(product, &ctx)));
    });
    g.bench_function("catalog_generation_200", |b| {
        b.iter(|| black_box(Catalog::generate(seed, &[Category::Photography], 200)).len());
    });

    let mut world = WebWorld::build(seed, paper_retailers(seed), 160);
    let fi = world.allocate_client(&Location::new(Country::Finland, "Tampere"));
    let slug = world
        .server_by_domain("www.digitalrev.com")
        .unwrap()
        .catalog()
        .iter()
        .next()
        .unwrap()
        .slug
        .clone();
    g.bench_function("end_to_end_fetch", |b| {
        let req = Request::get(
            "www.digitalrev.com",
            &format!("/product/{slug}"),
            fi,
            SimTime::from_millis(12 * 24 * 3_600_000),
        );
        b.iter(|| black_box(world.fetch(&req)).body.len());
    });
    g.bench_function("fetch_parse_extract_roundtrip", |b| {
        let req = Request::get(
            "www.digitalrev.com",
            &format!("/product/{slug}"),
            fi,
            SimTime::from_millis(12 * 24 * 3_600_000),
        );
        let style = world
            .server_by_domain("www.digitalrev.com")
            .unwrap()
            .spec()
            .template_style;
        b.iter(|| {
            let resp = world.fetch(&req);
            let doc = parse(&resp.body);
            let ex = HighlightExtractor::from_highlight(&doc, &price_selector(style)).unwrap();
            black_box(
                ex.extract(&doc, Some(Locale::of_country(Country::Finland)))
                    .unwrap()
                    .price,
            )
        });
    });
    g.finish();
}

/// The server layer alone: one product page served from the retailer's
/// skeleton (quotes, price formatting, splice), and the same page
/// written by the template's HTML writer.
fn bench_web(c: &mut Criterion) {
    let seed = Seed::new(1307);
    let spec = paper_retailers(seed)
        .into_iter()
        .find(|r| r.domain == "www.digitalrev.com")
        .unwrap();
    let server = RetailerServer::new(seed, spec);
    let fx = FxSeries::generate(seed, 160);
    let location = Location::new(Country::Germany, "Berlin");
    let req = Request::get(
        "www.digitalrev.com",
        &format!("/product/{}", server.catalog().iter().next().unwrap().slug),
        std::net::Ipv4Addr::new(10, 0, 0, 9),
        SimTime::from_millis(12 * 24 * 3_600_000),
    );
    let input = sample_input();

    let mut g = c.benchmark_group("web");
    g.bench_function("product_page_served", |b| {
        b.iter(|| {
            black_box(server.handle(&req, Some(&location), &fx))
                .body
                .len()
        });
    });
    g.bench_function("render_html", |b| {
        b.iter(|| black_box(render_html(0, &input)).len());
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_html,
    bench_currency,
    bench_pricing_and_web,
    bench_web
);
criterion_main!(benches);
