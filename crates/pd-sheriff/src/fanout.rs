//! The synchronized 14-point check.
//!
//! Sec. 2.2: "we synchronized the measurements from different vantage
//! points so that they occur almost at the same time". Each check sends
//! the exact URI to all vantage points; every fetch happens at the check
//! instant plus its one-way network latency (hundreds of ms at most — the
//! ablation bench removes this synchronization to show what breaks).

use crate::copies::{extract_copy, PageReader};
use crate::measurement::PriceObservation;
use pd_extract::HighlightExtractor;
use pd_net::clock::{SimDuration, SimTime};
use pd_net::geo::Country;
use pd_net::latency::LatencyModel;
use pd_net::vantage::VantagePoint;
use pd_web::{Request, Response, WebWorld};

/// The fan-out engine: the fixed vantage-point fleet plus the latency
/// model used to timestamp each fetch.
///
/// The desynchronization skew is deliberately *not* a public field: a
/// `Sheriff` is configured once (via [`Sheriff::with_desync`], normally
/// through the `desync-ablation` scenario in `pd-core`) and is immutable
/// afterwards, so no caller can silently desynchronize an engine mid-run.
#[derive(Debug, Clone)]
pub struct Sheriff {
    vantage_points: Vec<VantagePoint>,
    latency: LatencyModel,
    /// Extra per-vantage start skew (zero = synchronized; the ablation
    /// scenario sets it to minutes to demonstrate the noise it causes).
    desync: SimDuration,
}

impl Sheriff {
    /// Builds the engine from a vantage fleet and latency model, with
    /// synchronized fan-out (zero skew).
    #[must_use]
    pub fn new(vantage_points: Vec<VantagePoint>, latency: LatencyModel) -> Self {
        Sheriff {
            vantage_points,
            latency,
            desync: SimDuration::ZERO,
        }
    }

    /// Consuming setter for the desynchronization skew: vantage point `i`
    /// starts its fetch `i × desync` after the check instant. This is the
    /// ablation knob for the paper's synchronization argument; it can only
    /// be set at construction time.
    #[must_use]
    pub fn with_desync(mut self, desync: SimDuration) -> Self {
        self.desync = desync;
        self
    }

    /// The configured desynchronization skew (zero = synchronized).
    #[must_use]
    pub fn desync(&self) -> SimDuration {
        self.desync
    }

    /// Consuming setter restricting the fleet to the vantage points whose
    /// Fig. 7 labels appear in `labels` (fleet order is preserved; unknown
    /// labels are ignored). Used by the `vantage-subset` scenario.
    #[must_use]
    pub fn with_vantage_subset(mut self, labels: &[String]) -> Self {
        self.vantage_points
            .retain(|vp| labels.iter().any(|l| *l == vp.label()));
        self
    }

    /// The vantage fleet.
    #[must_use]
    pub fn vantage_points(&self) -> &[VantagePoint] {
        &self.vantage_points
    }

    /// Runs one check: fetch `http://host/path` from every vantage point
    /// at `time`, replay the highlight on each copy, extract.
    ///
    /// `extra_cookies` ride on every fetch (the login experiment sets
    /// `login=<key>`; normal checks pass none). Each vantage fetch is a
    /// fresh session, as $heriff's probes were.
    ///
    /// Every copy is fetched at its own instant and read through one
    /// [`PageReader`] scoped to the check
    /// ([`PageReader::vantage_copy`]). A copy is parsed and extracted
    /// only if no earlier copy of this check came from the same country
    /// with the same body bytes; such a copy takes the earlier copy's
    /// observation under its own vantage id: the extractor is fixed for
    /// the check and the locale hint depends only on the country, so
    /// re-extracting it would give exactly that observation. Failed
    /// (non-200) copies are never reused.
    ///
    /// An extracted copy is parsed only until the highlight's anchor
    /// target has closed, which gives what the whole page would; a copy
    /// the anchor does not resolve on is parsed whole. Each copy after
    /// the scope's first parse is parsed only from the last checkpoint
    /// inside the bytes it shares with the last parsed copy; a failed
    /// copy is never a resume base. The result equals [`check_one`] at
    /// every index.
    ///
    /// [`check_one`]: Sheriff::check_one
    #[must_use]
    pub fn check(
        &self,
        world: &WebWorld,
        host: &str,
        path: &str,
        extractor: &HighlightExtractor,
        time: SimTime,
        extra_cookies: &[(String, String)],
    ) -> Vec<PriceObservation> {
        self.check_with(
            world,
            host,
            path,
            extractor,
            time,
            extra_cookies,
            &mut PageReader::new(),
        )
    }

    /// [`check`](Sheriff::check) through `reader`, which may already hold
    /// the crowd user's own copy ([`PageReader::own_copy`]) and counts
    /// the check's copies, extractions and resumed parses.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn check_with(
        &self,
        world: &WebWorld,
        host: &str,
        path: &str,
        extractor: &HighlightExtractor,
        time: SimTime,
        extra_cookies: &[(String, String)],
        reader: &mut PageReader<PriceObservation>,
    ) -> Vec<PriceObservation> {
        self.vantage_points
            .iter()
            .enumerate()
            .map(|(i, vp)| {
                let resp = self.fetch_copy(world, host, path, time, extra_cookies, i);
                reader.vantage_copy(vp, resp, extractor)
            })
            .collect()
    }

    /// One copy of a check, fetched and extracted on its own: the
    /// single-vantage reference that [`check`] is tested against, equal
    /// to `check(..)[i]` whatever order the indices are evaluated in.
    ///
    /// [`check`]: Sheriff::check
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range of the vantage fleet.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn check_one(
        &self,
        world: &WebWorld,
        host: &str,
        path: &str,
        extractor: &HighlightExtractor,
        time: SimTime,
        extra_cookies: &[(String, String)],
        i: usize,
    ) -> PriceObservation {
        let resp = self.fetch_copy(world, host, path, time, extra_cookies, i);
        extract_copy(&resp, &self.vantage_points[i], |html, hint| {
            extractor.extract(&extractor.path().parse_pooled_prefix(html), hint)
        })
    }

    /// Fetches the copy of vantage index `i`: a fresh session arriving at
    /// the check instant plus its one-way latency (and desync skew).
    fn fetch_copy(
        &self,
        world: &WebWorld,
        host: &str,
        path: &str,
        time: SimTime,
        extra_cookies: &[(String, String)],
        i: usize,
    ) -> Response {
        // All simulated retailers are modeled as US-hosted origin
        // servers; only the relative latency spread matters for the
        // synchronization argument.
        let dst_country = Country::UnitedStates;
        let vp = &self.vantage_points[i];
        let skew_ms = self.desync.as_millis() * i as u64;
        let arrive = time
            + SimDuration::from_millis(
                self.latency.one_way_ms(vp.location.country, dst_country) + skew_ms,
            );
        let mut req = Request::get(host, path, vp.addr, arrive)
            .with_header("user-agent", vp.platform.user_agent());
        for (name, value) in extra_cookies {
            req = req.with_cookie(name, value);
        }
        world.fetch(&req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_currency::Currency;
    use pd_html::parse;
    use pd_net::ip::IpAllocator;
    use pd_net::vantage::paper_vantage_points;
    use pd_pricing::paper_retailers;
    use pd_util::Seed;
    use pd_web::template::price_selector;

    struct Rig {
        world: WebWorld,
        sheriff: Sheriff,
    }

    fn rig() -> Rig {
        let seed = Seed::new(1307);
        let mut world = WebWorld::build(seed, paper_retailers(seed), 160);
        let mut alloc = IpAllocator::new();
        let vps: Vec<VantagePoint> = paper_vantage_points(&mut alloc)
            .into_iter()
            .map(|mut vp| {
                vp.addr = world.allocate_client(&vp.location);
                vp
            })
            .collect();
        let sheriff = Sheriff::new(vps, LatencyModel::new(seed));
        Rig { world, sheriff }
    }

    fn highlight_for(rig: &Rig, domain: &str, slug: &str) -> HighlightExtractor {
        // Simulate a US user rendering their own page and highlighting.
        let server = rig.world.server_by_domain(domain).unwrap();
        let vp = &rig.sheriff.vantage_points()[8]; // USA - Boston
        let req = Request::get(domain, &format!("/product/{slug}"), vp.addr, SimTime::EPOCH);
        let resp = rig.world.fetch(&req);
        let doc = parse(&resp.body);
        HighlightExtractor::from_highlight(&doc, &price_selector(server.spec().template_style))
            .unwrap()
    }

    #[test]
    fn fourteen_observations_per_check() {
        let r = rig();
        let slug = r
            .world
            .server_by_domain("www.digitalrev.com")
            .unwrap()
            .catalog()
            .iter()
            .next()
            .unwrap()
            .slug
            .clone();
        let ex = highlight_for(&r, "www.digitalrev.com", &slug);
        let obs = r.sheriff.check(
            &r.world,
            "www.digitalrev.com",
            &format!("/product/{slug}"),
            &ex,
            SimTime::EPOCH,
            &[],
        );
        assert_eq!(obs.len(), 14);
        assert!(obs.iter().all(|o| o.price.is_some()), "{obs:?}");
    }

    #[test]
    fn multiplicative_retailer_shows_location_spread() {
        let r = rig();
        let slug = r
            .world
            .server_by_domain("www.digitalrev.com")
            .unwrap()
            .catalog()
            .iter()
            .next()
            .unwrap()
            .slug
            .clone();
        let ex = highlight_for(&r, "www.digitalrev.com", &slug);
        let obs = r.sheriff.check(
            &r.world,
            "www.digitalrev.com",
            &format!("/product/{slug}"),
            &ex,
            SimTime::EPOCH,
            &[],
        );
        // Finnish VP (index 2) sees EUR; US VPs see USD.
        let fi = &obs[2];
        assert_eq!(fi.price.unwrap().currency, Currency::Eur);
        let us = &obs[8];
        assert_eq!(us.price.unwrap().currency, Currency::Usd);
        // Convert via world FX: Finland ≈ 1.26× the US price.
        let f = r.world.fx();
        let ratio = f.to_usd_mid(fi.price.unwrap(), 0) / f.to_usd_mid(us.price.unwrap(), 0);
        assert!((1.20..1.32).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn three_spain_probes_agree() {
        // Same location, different platforms: platform must not change
        // the price (no platform component in any strategy).
        let r = rig();
        let slug = r
            .world
            .server_by_domain("www.energie.it")
            .unwrap()
            .catalog()
            .iter()
            .next()
            .unwrap()
            .slug
            .clone();
        let ex = highlight_for(&r, "www.energie.it", &slug);
        let obs = r.sheriff.check(
            &r.world,
            "www.energie.it",
            &format!("/product/{slug}"),
            &ex,
            SimTime::EPOCH,
            &[],
        );
        let spain: Vec<_> = (4..=6).map(|i| obs[i].price.unwrap()).collect();
        assert_eq!(spain[0], spain[1]);
        assert_eq!(spain[1], spain[2]);
    }

    #[test]
    fn unknown_host_fails_observations() {
        let r = rig();
        let doc = parse("<html><body><span class=price>$5</span></body></html>");
        let ex =
            HighlightExtractor::from_highlight(&doc, &pd_html::Selector::parse(".price").unwrap())
                .unwrap();
        let obs = r.sheriff.check(
            &r.world,
            "gone.example",
            "/product/x",
            &ex,
            SimTime::EPOCH,
            &[],
        );
        assert_eq!(obs.len(), 14);
        assert!(obs.iter().all(|o| o.price.is_none()));
        assert!(obs[0].error.as_deref().unwrap().contains("404"));
    }

    #[test]
    fn login_cookie_rides_every_fetch() {
        let r = rig();
        let slug = r
            .world
            .server_by_domain("www.amazon.com")
            .unwrap()
            .catalog()
            .iter()
            .next()
            .unwrap()
            .slug
            .clone();
        let ex = highlight_for(&r, "www.amazon.com", &slug);
        let anon = r.sheriff.check(
            &r.world,
            "www.amazon.com",
            &format!("/product/{slug}"),
            &ex,
            SimTime::EPOCH,
            &[],
        );
        let logged = r.sheriff.check(
            &r.world,
            "www.amazon.com",
            &format!("/product/{slug}"),
            &ex,
            SimTime::EPOCH,
            &[("login".to_owned(), "7".to_owned())],
        );
        // Amazon's jitter is session-keyed, not login-keyed: with equal
        // session derivation inputs (addr, time), prices must match.
        let pa: Vec<_> = anon.iter().map(|o| o.price).collect();
        let pl: Vec<_> = logged.iter().map(|o| o.price).collect();
        assert_eq!(pa, pl, "login alone must not shift prices");
    }

    #[test]
    fn desync_changes_nothing_for_static_prices_within_day() {
        let r = rig();
        let slug = r
            .world
            .server_by_domain("www.digitalrev.com")
            .unwrap()
            .catalog()
            .iter()
            .next()
            .unwrap()
            .slug
            .clone();
        let ex = highlight_for(&r, "www.digitalrev.com", &slug);
        let sync = r.sheriff.check(
            &r.world,
            "www.digitalrev.com",
            &format!("/product/{slug}"),
            &ex,
            SimTime::EPOCH,
            &[],
        );
        let desynced = r.sheriff.clone().with_desync(SimDuration::from_mins(1));
        assert_eq!(desynced.desync(), SimDuration::from_mins(1));
        let desync = desynced.check(
            &r.world,
            "www.digitalrev.com",
            &format!("/product/{slug}"),
            &ex,
            SimTime::EPOCH,
            &[],
        );
        // digitalrev has no temporal component and sessions are keyed by
        // time... prices may differ only if a session-keyed component
        // exists; digitalrev has none.
        let a: Vec<_> = sync.iter().map(|o| o.price).collect();
        let b: Vec<_> = desync.iter().map(|o| o.price).collect();
        assert_eq!(a, b);
    }

    /// The first `n` catalog slugs of `domain`.
    fn slugs(rig: &Rig, domain: &str, n: usize) -> Vec<String> {
        rig.world
            .server_by_domain(domain)
            .unwrap()
            .catalog()
            .iter()
            .take(n)
            .map(|p| p.slug.clone())
            .collect()
    }

    #[test]
    fn check_one_matches_full_check_at_every_index() {
        // `check` extracts each distinct same-country copy once and
        // reuses it; `check_one` fetches and extracts its copy alone.
        // They must agree everywhere: every paper retailer, three
        // products, anonymous and logged in, synchronized and skewed.
        let r = rig();
        let login = [("login".to_owned(), "7".to_owned())];
        let desynced = r.sheriff.clone().with_desync(SimDuration::from_mins(25));
        let time = SimTime::from_millis(40 * 24 * 3_600_000);
        for spec in paper_retailers(Seed::new(1307)) {
            let domain = spec.domain.as_str();
            for slug in slugs(&r, domain, 3) {
                let ex = highlight_for(&r, domain, &slug);
                let path = format!("/product/{slug}");
                for sheriff in [&r.sheriff, &desynced] {
                    for cookies in [&[][..], &login[..]] {
                        let full = sheriff.check(&r.world, domain, &path, &ex, time, cookies);
                        assert_eq!(full.len(), 14);
                        // Evaluate in reverse order: results must still
                        // line up per index.
                        for i in (0..full.len()).rev() {
                            let one =
                                sheriff.check_one(&r.world, domain, &path, &ex, time, cookies, i);
                            assert_eq!(
                                one,
                                full[i],
                                "{domain}{path} vantage {i}, desync {:?}, cookies {cookies:?}",
                                sheriff.desync()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn check_one_matches_full_check_when_copies_fail() {
        // Transient failures between distinct copies: a failed copy is
        // never a resume base, so the next 200 copy resumes from the last
        // one parsed, and every index still equals its lone reference.
        let mut r = rig();
        // The highlights come from the users' own pages, fetched before
        // anything fails.
        let mut cases = Vec::new();
        for spec in paper_retailers(Seed::new(1307)) {
            for slug in slugs(&r, &spec.domain, 2) {
                let ex = highlight_for(&r, &spec.domain, &slug);
                cases.push((spec.domain.clone(), format!("/product/{slug}"), ex));
            }
        }
        r.world.set_failure_rate(0.3);
        let time = SimTime::from_millis(40 * 24 * 3_600_000);
        let (mut failed, mut resumed) = (0, 0);
        for (domain, path, ex) in &cases {
            let mut reader = PageReader::new();
            let full = r
                .sheriff
                .check_with(&r.world, domain, path, ex, time, &[], &mut reader);
            resumed += reader.tally().resumed;
            for (i, obs) in full.iter().enumerate() {
                let one = r
                    .sheriff
                    .check_one(&r.world, domain, path, ex, time, &[], i);
                assert_eq!(one, *obs, "{domain}{path} vantage {i}");
                failed += usize::from(obs.price.is_none());
            }
        }
        assert!(failed > 100, "{failed} failed copies");
        assert!(resumed > 100, "{resumed} resumed parses");
    }

    /// Runs a check: the observations and the number of copies actually
    /// extracted.
    fn counted_check(
        r: &Rig,
        host: &str,
        path: &str,
        ex: &HighlightExtractor,
    ) -> (Vec<PriceObservation>, usize) {
        let mut reader = PageReader::new();
        let obs = r
            .sheriff
            .check_with(&r.world, host, path, ex, SimTime::EPOCH, &[], &mut reader);
        let tally = reader.tally();
        assert_eq!(tally.copies, 14);
        (obs, tally.extracted as usize)
    }

    /// The distinct `(country, body)` pairs among the 200 copies of a
    /// check, counted from independent fetches.
    fn distinct_copies(r: &Rig, host: &str, path: &str) -> usize {
        let mut seen: Vec<(Country, String)> = Vec::new();
        for (i, vp) in r.sheriff.vantage_points().iter().enumerate() {
            let resp = r
                .sheriff
                .fetch_copy(&r.world, host, path, SimTime::EPOCH, &[], i);
            assert_eq!(resp.status.code(), 200);
            let copy = (vp.location.country, resp.body);
            if !seen.contains(&copy) {
                seen.push(copy);
            }
        }
        seen.len()
    }

    #[test]
    fn each_distinct_copy_is_extracted_once() {
        let r = rig();
        // Fig. 7's fleet: Belgium, Brazil, Finland, Germany, Spain (3),
        // the UK and the US (6).
        let countries = 7;

        // Country-keyed: the six US and the three Spain probes see one
        // page per country.
        let slug = &slugs(&r, "www.digitalrev.com", 1)[0];
        let path = format!("/product/{slug}");
        let ex = highlight_for(&r, "www.digitalrev.com", slug);
        let (obs, n) = counted_check(&r, "www.digitalrev.com", &path, &ex);
        assert_eq!(n, countries);
        assert!(obs.iter().all(|o| o.price.is_some()), "{obs:?}");
        // Reused observations carry their own vantage id.
        let ids: Vec<_> = obs.iter().map(|o| o.vantage).collect();
        let fleet: Vec<_> = r.sheriff.vantage_points().iter().map(|vp| vp.id).collect();
        assert_eq!(ids, fleet);

        // Amazon prices by country too, but its session jitter gives
        // every probe (a fresh session each) its own price: same-country
        // copies differ in their bytes, so none is reused.
        let slug = &slugs(&r, "www.amazon.com", 1)[0];
        let path = format!("/product/{slug}");
        let ex = highlight_for(&r, "www.amazon.com", slug);
        let (_, n) = counted_check(&r, "www.amazon.com", &path, &ex);
        assert_eq!(n, distinct_copies(&r, "www.amazon.com", &path));
        assert_eq!(n, 14);

        // City-keyed: homedepot's US cities see different prices, so
        // their copies are extracted separately.
        let slug = &slugs(&r, "www.homedepot.com", 1)[0];
        let path = format!("/product/{slug}");
        let ex = highlight_for(&r, "www.homedepot.com", slug);
        let (obs, n) = counted_check(&r, "www.homedepot.com", &path, &ex);
        assert_eq!(n, distinct_copies(&r, "www.homedepot.com", &path));
        assert!(n > countries, "homedepot's US copies differ: {n}");
        let us: Vec<_> = (8..14).map(|i| obs[i].price.unwrap()).collect();
        assert!(us.iter().any(|p| *p != us[0]), "{us:?}");

        // Failed copies are never reused, even with identical bodies.
        let doc = parse("<html><body><span class=price>$5</span></body></html>");
        let ex =
            HighlightExtractor::from_highlight(&doc, &pd_html::Selector::parse(".price").unwrap())
                .unwrap();
        let (obs, n) = counted_check(&r, "gone.example", "/product/x", &ex);
        assert_eq!(n, 14);
        assert!(obs.iter().all(|o| o.error.as_deref() == Some("http 404")));
    }

    #[test]
    fn vantage_subset_preserves_fleet_order() {
        let r = rig();
        let keep = vec![
            "Finland - Tampere".to_owned(),
            "USA - Boston".to_owned(),
            "UK - London".to_owned(),
        ];
        let subset = r.sheriff.clone().with_vantage_subset(&keep);
        let labels: Vec<String> = subset
            .vantage_points()
            .iter()
            .map(|vp| vp.label())
            .collect();
        assert_eq!(labels.len(), 3);
        // Fleet order (not request order) is preserved.
        let full: Vec<String> = r
            .sheriff
            .vantage_points()
            .iter()
            .map(|vp| vp.label())
            .filter(|l| keep.contains(l))
            .collect();
        assert_eq!(labels, full);
        // Unknown labels are ignored.
        let none = r
            .sheriff
            .clone()
            .with_vantage_subset(&["Mars - Olympus".to_owned()]);
        assert!(none.vantage_points().is_empty());
    }
}
