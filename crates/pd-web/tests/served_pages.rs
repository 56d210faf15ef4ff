//! Every server's product page equals its rebuilt render input.
//!
//! A server writes a product page by splicing names and prices into its
//! per-retailer skeleton. For every retailer of the paper@small world
//! (the paper's named retailers plus 60 fillers, one of which inlines
//! tax) at seed 1307, every client country and two products, the page
//! `handle()` serves must equal `render_html` of the `RenderInput`
//! rebuilt from the retailer's public parts: quote context, pricing
//! engine, localized price texts. Requests run with and without `sid`
//! and `login` cookies.

use pd_currency::{FxSeries, Locale};
use pd_net::clock::SimTime;
use pd_net::geo::{Country, Location};
use pd_pricing::quote::{LoginState, QuoteContext};
use pd_pricing::{filler_retailers, paper_retailers};
use pd_util::{ProductId, Seed};
use pd_web::convert::usd_to_local;
use pd_web::server::{tax_rate, PROMO_TEXT};
use pd_web::template::{render_html, RenderInput, RECOMMENDED};
use pd_web::{Request, RetailerServer};
use std::net::Ipv4Addr;

const SEED: u64 = 1307;

/// The page `server` serves for `req` from `location`, rebuilt through
/// the template's HTML writer. `session` is the session token the
/// server uses (the `sid` cookie, or its own derivation).
fn rebuilt_page(
    server: &RetailerServer,
    req: &Request,
    location: &Location,
    session: u64,
    fx: &FxSeries,
) -> String {
    let spec = server.spec();
    let catalog = server.catalog();
    let product = catalog
        .by_slug(req.path.strip_prefix("/product/").unwrap())
        .unwrap();
    let login = match req.cookie("login") {
        Some(key) => LoginState::LoggedIn {
            user_key: key.parse().unwrap(),
        },
        None => LoginState::Anonymous,
    };
    let ctx = QuoteContext::anonymous(location.clone(), req.time)
        .with_login(login)
        .with_session(session);
    let locale = Locale::of_country(location.country);
    let day = ctx.day.min(fx.days().saturating_sub(1));
    let local = |usd| locale.format_price(usd_to_local(fx, usd, locale.currency, day));

    let mut usd = server.engine().quote(product, &ctx);
    if spec.inlines_tax {
        usd = usd.scale(1.0 + tax_rate(location.country));
    }
    let recommended = (1..=RECOMMENDED)
        .map(|k| {
            let idx = (product.id.index() + k) % catalog.len();
            let rp = catalog.product(ProductId::new(u32::try_from(idx).unwrap()));
            (rp.name.clone(), local(server.engine().quote(rp, &ctx)))
        })
        .collect();
    let input = RenderInput {
        domain: &spec.domain,
        product_name: &product.name,
        price_text: local(usd),
        recommended,
        third_parties: &spec.third_parties,
        promo_text: PROMO_TEXT.to_owned(),
    };
    render_html(spec.template_style, &input)
}

/// The session token a server derives for a request without `sid`.
fn derived_session(domain: &str, req: &Request) -> u64 {
    Seed::new(SEED)
        .derive("retailer")
        .derive(domain)
        .derive("session")
        .derive_idx(u64::from(u32::from(req.client_addr)))
        .derive_idx(req.time.as_millis())
        .value()
}

#[test]
fn every_server_serves_its_rebuilt_page_in_every_country() {
    let seed = Seed::new(SEED);
    let fx = FxSeries::generate(seed, 160);
    let specs: Vec<_> = paper_retailers(seed)
        .into_iter()
        .chain(filler_retailers(seed, 60))
        .collect();
    assert!(
        specs.iter().any(|s| s.inlines_tax),
        "a tax-inlining retailer"
    );
    let time = SimTime::from_millis(5 * 24 * 3_600_000 + 14 * 3_600_000);
    let mut pages = 0;
    for spec in specs {
        let server = RetailerServer::new(seed, spec);
        let domain = server.spec().domain.clone();
        for product in server.catalog().iter().take(2) {
            let path = format!("/product/{}", product.slug);
            for (i, &country) in Country::ALL.iter().enumerate() {
                let location = Location::new(country, "Served");
                let addr = Ipv4Addr::new(10, 2, 0, u8::try_from(i).unwrap());
                let anonymous = Request::get(&domain, &path, addr, time);
                let session = derived_session(&domain, &anonymous);
                let resp = server.handle(&anonymous, Some(&location), &fx);
                assert_eq!(resp.status.code(), 200);
                assert_eq!(
                    resp.body,
                    rebuilt_page(&server, &anonymous, &location, session, &fx),
                    "{domain}{path} from {country:?}"
                );
                let logged_in = anonymous
                    .clone()
                    .with_cookie("sid", "424242")
                    .with_cookie("login", &(7_000 + i).to_string());
                let resp = server.handle(&logged_in, Some(&location), &fx);
                assert!(resp.set_cookie().is_none(), "sid cookie reused");
                assert_eq!(
                    resp.body,
                    rebuilt_page(&server, &logged_in, &location, 424_242, &fx),
                    "{domain}{path} from {country:?}, logged in"
                );
                pages += 2;
            }
        }
    }
    assert!(pages >= 80 * 2 * 18 * 2, "{pages} pages");
}
