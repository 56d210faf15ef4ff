//! One retailer's request handling.
//!
//! The server is a pure function of (request, resolved client location,
//! FX series): geo-localize, select locale, quote through the ground-truth
//! engine, localize the currency, render the template. Sessions and login
//! ride on cookies. `/checkout/<slug>` adds shipping and tax — *after*
//! the product page, which is exactly why the paper's product-page
//! methodology is not confounded by them ("most e-retailers do not
//! include shipping and taxing before checkout").
//!
//! A server renders its template family once, when it is built, into a
//! [`PageSkeleton`]; a product page is that skeleton with the product's
//! and the recommended products' names and localized prices spliced in,
//! the prices written straight into the page buffer
//! ([`Locale::write_price`]). The page is byte for byte what
//! [`template::render_html`](crate::template::render_html) writes for
//! the same [`RenderInput`](crate::template::RenderInput).

use crate::convert::usd_to_local;
use crate::http::{Request, Response};
use crate::template::{PageSkeleton, RECOMMENDED};
use pd_currency::{FxSeries, Locale};
use pd_net::geo::{Country, Location, Region};
use pd_pricing::quote::{LoginState, QuoteContext};
use pd_pricing::{Catalog, PricingEngine, RetailerSpec};
use pd_util::{Money, ProductId, Seed};
use std::sync::LazyLock;

/// The promo banner every product page carries (a literal dollar amount,
/// one of the extractor's decoys).
pub const PROMO_TEXT: &str = "Save $10 on orders over $100 today!";

/// Where a client the geo-IP database cannot place is assumed to be.
static UNKNOWN_LOCATION: LazyLock<Location> =
    LazyLock::new(|| Location::new(Country::UnitedStates, "Unknown"));

/// A simulated retailer web server.
#[derive(Debug, Clone)]
pub struct RetailerServer {
    spec: RetailerSpec,
    catalog: Catalog,
    engine: PricingEngine,
    seed: Seed,
    /// The product page with names and prices left out.
    page: PageSkeleton,
}

impl RetailerServer {
    /// Builds the server for a retailer spec. Catalog and engine are
    /// derived from `seed` × the retailer's domain, so every retailer
    /// prices independently; the product-page skeleton is rendered here.
    ///
    /// # Panics
    ///
    /// Panics if the domain holds a Unicode private-use character (the
    /// skeleton's placeholders).
    #[must_use]
    pub fn new(seed: Seed, spec: RetailerSpec) -> Self {
        let rseed = seed.derive("retailer").derive(&spec.domain);
        let catalog = Catalog::generate(rseed, &spec.categories, spec.catalog_size);
        let engine = PricingEngine::new(rseed, spec.components.clone());
        let page = PageSkeleton::new(
            spec.template_style,
            &spec.domain,
            &spec.third_parties,
            PROMO_TEXT,
        );
        RetailerServer {
            spec,
            catalog,
            engine,
            seed: rseed,
            page,
        }
    }

    /// The retailer's spec.
    #[must_use]
    pub fn spec(&self) -> &RetailerSpec {
        &self.spec
    }

    /// The retailer's catalog (ground truth; the crawler uses it only to
    /// enumerate product URLs, as a sitemap would).
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The ground-truth engine (tests and ablations only).
    #[must_use]
    pub fn engine(&self) -> &PricingEngine {
        &self.engine
    }

    /// Handles a request. `client_location` is what the retailer's
    /// city-granularity geo-IP database resolved for the client address
    /// (`None` ⇒ unknown ⇒ US-default localization, as real retailers
    /// fall back).
    #[must_use]
    pub fn handle(
        &self,
        req: &Request,
        client_location: Option<&Location>,
        fx: &FxSeries,
    ) -> Response {
        let location = client_location.unwrap_or(&UNKNOWN_LOCATION);

        if let Some(slug) = req.path.strip_prefix("/product/") {
            self.product_page(req, location, slug, fx)
        } else if let Some(slug) = req.path.strip_prefix("/checkout/") {
            self.checkout_page(req, location, slug, fx)
        } else if req.path == "/" {
            self.index_page()
        } else {
            Response::not_found()
        }
    }

    /// Session token: from the `sid` cookie if present, else derived from
    /// the client address and time (and echoed via `Set-Cookie`).
    fn session_token(&self, req: &Request) -> (u64, bool) {
        if let Some(sid) = req.cookie("sid").and_then(|s| s.parse::<u64>().ok()) {
            (sid, false)
        } else {
            let token = self
                .seed
                .derive("session")
                .derive_idx(u64::from(u32::from(req.client_addr)))
                .derive_idx(req.time.as_millis())
                .value();
            (token, true)
        }
    }

    fn quote_context(&self, req: &Request, location: &Location) -> (QuoteContext, bool) {
        let (session_token, fresh) = self.session_token(req);
        let login = match req.cookie("login").and_then(|v| v.parse::<u64>().ok()) {
            Some(user_key) => LoginState::LoggedIn { user_key },
            None => LoginState::Anonymous,
        };
        let ctx = QuoteContext::anonymous(location.clone(), req.time)
            .with_login(login)
            .with_session(session_token);
        (ctx, fresh)
    }

    fn product_page(
        &self,
        req: &Request,
        location: &Location,
        slug: &str,
        fx: &FxSeries,
    ) -> Response {
        let Some(product) = self.catalog.by_slug(slug) else {
            return Response::not_found();
        };
        let (ctx, fresh_session) = self.quote_context(req, location);
        let locale = Locale::of_country(location.country);
        let day = ctx.day.min(fx.days().saturating_sub(1));

        let mut usd = self.engine.quote(product, &ctx);
        if self.spec.inlines_tax {
            usd = usd.scale(1.0 + tax_rate(location.country));
        }
        // Deterministic recommendations: the next three products.
        let recommended = std::array::from_fn::<_, RECOMMENDED, _>(|k| {
            let idx = (product.id.index() + k + 1) % self.catalog.len();
            self.catalog.product(ProductId::new(idx as u32))
        });
        let mut prices = [usd_to_local(fx, usd, locale.currency, day); 1 + RECOMMENDED];
        for (price, rp) in prices[1..].iter_mut().zip(recommended) {
            *price = usd_to_local(fx, self.engine.quote(rp, &ctx), locale.currency, day);
        }
        let names = [
            product.name.as_str(),
            &recommended[0].name,
            &recommended[1].name,
            &recommended[2].name,
        ];
        let body = self
            .page
            .write(names, |i, out| locale.write_price(prices[i], out));
        let mut resp = Response::ok(body);
        if fresh_session {
            resp = resp.with_set_cookie("sid", &ctx.session_token.to_string());
        }
        resp
    }

    fn checkout_page(
        &self,
        req: &Request,
        location: &Location,
        slug: &str,
        fx: &FxSeries,
    ) -> Response {
        let Some(product) = self.catalog.by_slug(slug) else {
            return Response::not_found();
        };
        let (ctx, _) = self.quote_context(req, location);
        let locale = Locale::of_country(location.country);
        let day = ctx.day.min(fx.days().saturating_sub(1));

        let usd = self.engine.quote(product, &ctx);
        let tax = usd.scale(tax_rate(location.country));
        let shipping = shipping_usd(location.country);
        let total = usd + tax + shipping;

        let lines = [
            ("Item", usd),
            ("Tax", tax),
            ("Shipping", shipping),
            ("Total", total),
        ];
        let locale_lines: Vec<(String, String)> = lines
            .iter()
            .map(|(label, amount)| {
                let p = usd_to_local(fx, *amount, locale.currency, day);
                ((*label).to_owned(), locale.format_price(p))
            })
            .collect();

        let mut body = String::from("<html><body><table id=\"checkout\">");
        for (label, text) in &locale_lines {
            body.push_str(&format!(
                "<tr><td class=\"line-label\">{label}</td><td class=\"line-amount\">{}</td></tr>",
                pd_html::escape::escape_text(text)
            ));
        }
        body.push_str("</table></body></html>");
        Response::ok(body)
    }

    fn index_page(&self) -> Response {
        let mut body = format!(
            "<html><head><title>{}</title></head><body><ul id=\"catalog\">",
            self.spec.domain
        );
        for p in self.catalog.iter() {
            body.push_str(&format!(
                "<li><a href=\"/product/{}\">{}</a></li>",
                p.slug, p.name
            ));
        }
        body.push_str("</ul></body></html>");
        Response::ok(body)
    }
}

/// Simplified VAT/sales-tax rate by country (applied only at checkout
/// unless the retailer is a tax-inliner).
#[must_use]
pub fn tax_rate(country: Country) -> f64 {
    match country.region() {
        Region::NorthAmerica => 0.07,
        Region::SouthAmerica => 0.17,
        Region::Eurozone | Region::EuropeNonEuro => 0.21,
        Region::AsiaPacific => 0.10,
    }
}

/// Flat shipping in USD by region (checkout only).
#[must_use]
pub fn shipping_usd(country: Country) -> Money {
    match country.region() {
        Region::NorthAmerica => Money::from_minor(599),
        Region::SouthAmerica => Money::from_minor(1_499),
        Region::Eurozone | Region::EuropeNonEuro => Money::from_minor(899),
        Region::AsiaPacific => Money::from_minor(1_299),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::price_selector;
    use pd_html::parse;
    use pd_net::clock::SimTime;
    use pd_pricing::paper_retailers;
    use std::net::Ipv4Addr;

    fn digitalrev() -> RetailerServer {
        let spec = paper_retailers(Seed::new(1307))
            .into_iter()
            .find(|r| r.domain == "www.digitalrev.com")
            .unwrap();
        RetailerServer::new(Seed::new(1307), spec)
    }

    fn fx() -> FxSeries {
        FxSeries::generate(Seed::new(1307), 160)
    }

    fn addr() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 9)
    }

    fn get(server: &RetailerServer, path: &str, loc: &Location) -> Response {
        let req = Request::get(&server.spec().domain, path, addr(), SimTime::EPOCH);
        server.handle(&req, Some(loc), &fx())
    }

    #[test]
    fn product_page_renders_and_extracts() {
        let server = digitalrev();
        let slug = server.catalog().iter().next().unwrap().slug.clone();
        let us = Location::new(Country::UnitedStates, "New York");
        let resp = get(&server, &format!("/product/{slug}"), &us);
        assert_eq!(resp.status.code(), 200);
        let doc = parse(&resp.body);
        let sel = price_selector(server.spec().template_style);
        let hit = sel.query_first(&doc).expect("price node");
        let text = doc.text_content(hit);
        assert!(text.starts_with('$'), "US visitor sees USD: {text}");
    }

    #[test]
    fn finland_sees_euros_and_higher_price() {
        let server = digitalrev();
        let product = server.catalog().iter().next().unwrap().clone();
        let us = Location::new(Country::UnitedStates, "New York");
        let fi = Location::new(Country::Finland, "Tampere");
        let us_resp = get(&server, &format!("/product/{}", product.slug), &us);
        let fi_resp = get(&server, &format!("/product/{}", product.slug), &fi);
        let sel = price_selector(server.spec().template_style);
        let us_doc = parse(&us_resp.body);
        let fi_doc = parse(&fi_resp.body);
        let us_text = us_doc.text_content(sel.query_first(&us_doc).unwrap());
        let fi_text = fi_doc.text_content(sel.query_first(&fi_doc).unwrap());
        assert!(fi_text.contains('€'), "{fi_text}");
        // Parse both and compare USD values: Finland pays ~1.26×.
        let us_price = Locale::of_country(Country::UnitedStates)
            .parse(&us_text)
            .unwrap();
        let fi_price = Locale::of_country(Country::Finland)
            .parse(&fi_text)
            .unwrap();
        let f = fx();
        let ratio = f.to_usd_mid(fi_price, 0) / f.to_usd_mid(us_price, 0);
        assert!((1.2..1.32).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn unknown_location_falls_back_to_usd() {
        let server = digitalrev();
        let slug = server.catalog().iter().next().unwrap().slug.clone();
        let req = Request::get(
            &server.spec().domain,
            &format!("/product/{slug}"),
            addr(),
            SimTime::EPOCH,
        );
        let resp = server.handle(&req, None, &fx());
        assert_eq!(resp.status.code(), 200);
        assert!(resp.body.contains('$'));
    }

    #[test]
    fn missing_product_404s() {
        let server = digitalrev();
        let us = Location::new(Country::UnitedStates, "Boston");
        assert_eq!(get(&server, "/product/nope", &us).status.code(), 404);
        assert_eq!(get(&server, "/bogus", &us).status.code(), 404);
    }

    #[test]
    fn index_lists_all_products() {
        let server = digitalrev();
        let us = Location::new(Country::UnitedStates, "Boston");
        let resp = get(&server, "/", &us);
        for p in server.catalog().iter() {
            assert!(resp.body.contains(&p.slug));
        }
    }

    #[test]
    fn fresh_session_sets_cookie_and_reuse_is_stable() {
        let server = digitalrev();
        let slug = server.catalog().iter().next().unwrap().slug.clone();
        let us = Location::new(Country::UnitedStates, "Boston");
        let req = Request::get(
            &server.spec().domain,
            &format!("/product/{slug}"),
            addr(),
            SimTime::EPOCH,
        );
        let resp = server.handle(&req, Some(&us), &fx());
        let (name, sid) = resp.set_cookie().expect("session cookie");
        assert_eq!(name, "sid");
        // Replaying with the cookie: no new cookie, same body.
        let req2 = req.clone().with_cookie("sid", sid);
        let resp2 = server.handle(&req2, Some(&us), &fx());
        assert!(resp2.set_cookie().is_none());
    }

    #[test]
    fn checkout_adds_tax_and_shipping() {
        let server = digitalrev();
        let product = server.catalog().iter().next().unwrap().clone();
        let us = Location::new(Country::UnitedStates, "Boston");
        let page = get(&server, &format!("/checkout/{}", product.slug), &us);
        assert_eq!(page.status.code(), 200);
        let doc = parse(&page.body);
        let amounts = pd_html::Selector::parse("td.line-amount")
            .unwrap()
            .query_all(&doc);
        assert_eq!(amounts.len(), 4, "item, tax, shipping, total");
        let loc = Locale::of_country(Country::UnitedStates);
        let parsed: Vec<_> = amounts
            .iter()
            .map(|&n| loc.parse(&doc.text_content(n)).unwrap().amount)
            .collect();
        // total = item + tax + shipping
        assert_eq!(parsed[3], parsed[0] + parsed[1] + parsed[2]);
        assert!(parsed[1].is_positive(), "tax charged at checkout");
        // and the product page price equals the pre-tax item price.
        let ppage = get(&server, &format!("/product/{}", product.slug), &us);
        let pdoc = parse(&ppage.body);
        let sel = price_selector(server.spec().template_style);
        let ptext = pdoc.text_content(sel.query_first(&pdoc).unwrap());
        assert_eq!(loc.parse(&ptext).unwrap().amount, parsed[0]);
    }

    #[test]
    fn tax_inliner_shows_higher_product_price() {
        let mut spec = paper_retailers(Seed::new(1307))
            .into_iter()
            .find(|r| r.domain == "www.digitalrev.com")
            .unwrap();
        spec.inlines_tax = true;
        let inliner = RetailerServer::new(Seed::new(1307), spec);
        let normal = digitalrev();
        let us = Location::new(Country::UnitedStates, "Boston");
        let slug = normal.catalog().iter().next().unwrap().slug.clone();
        let sel = price_selector(normal.spec().template_style);
        let loc = Locale::of_country(Country::UnitedStates);
        let price_of = |srv: &RetailerServer| {
            let resp = get(srv, &format!("/product/{slug}"), &us);
            let doc = parse(&resp.body);
            loc.parse(&doc.text_content(sel.query_first(&doc).unwrap()))
                .unwrap()
                .amount
        };
        let (pn, pi) = (price_of(&normal), price_of(&inliner));
        let ratio = pi.ratio_to(pn).unwrap();
        assert!((ratio - 1.07).abs() < 0.01, "inlined tax ratio {ratio}");
    }

    #[test]
    fn same_request_is_deterministic() {
        let server = digitalrev();
        let slug = server.catalog().iter().next().unwrap().slug.clone();
        let fi = Location::new(Country::Finland, "Tampere");
        let a = get(&server, &format!("/product/{slug}"), &fi);
        let b = get(&server, &format!("/product/{slug}"), &fi);
        assert_eq!(a.body, b.body);
    }
}
