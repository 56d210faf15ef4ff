//! Factor attribution — the paper's future work, implemented.
//!
//! Sec. 6: "In addition to scaling up the search for price
//! discrimination it would be desirable if we could attribute the
//! observed prices with the personal information of a user."
//!
//! This module does that by *controlled probing*: for one retailer, hold
//! every request attribute fixed and vary exactly one factor at a time —
//! country, city within a country, browser session, calendar day, login
//! state — then test whether prices move. Cross-currency comparisons go
//! through the exchange-band filter; same-currency comparisons use an
//! exact cent-level test. The result is a per-factor verdict with the
//! largest observed ratio, i.e. precisely the attribution table the
//! authors wanted.

use pd_currency::{band_filter, Price};
use pd_net::clock::SimTime;
use pd_net::geo::Location;
use pd_sheriff::copies::{CopyTally, PageReader};
use pd_web::template::price_selector;
use pd_web::WebWorld;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// A request attribute the prober can isolate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Factor {
    /// Client country (geo-IP granularity).
    Country,
    /// City within one country (CDN/zip granularity).
    CityWithinCountry,
    /// Browser session (cookie identity).
    Session,
    /// Calendar day.
    Day,
    /// Login state.
    Login,
}

impl Factor {
    /// All probe-able factors.
    pub const ALL: [Factor; 5] = [
        Factor::Country,
        Factor::CityWithinCountry,
        Factor::Session,
        Factor::Day,
        Factor::Login,
    ];
}

/// The verdict for one factor at one retailer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorEffect {
    /// The isolated factor.
    pub factor: Factor,
    /// Whether varying only this factor moved any probed price.
    pub varies: bool,
    /// Largest max/min ratio observed across probed products (1.0 when
    /// nothing moved).
    pub max_ratio: f64,
    /// Products probed.
    pub products: usize,
}

/// Attribution table for one retailer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attribution {
    /// Retailer domain.
    pub domain: String,
    /// One verdict per factor, in [`Factor::ALL`] order.
    pub effects: Vec<FactorEffect>,
}

impl Attribution {
    /// The verdict for one factor.
    ///
    /// # Panics
    ///
    /// Never — every factor is probed.
    #[must_use]
    pub fn effect(&self, factor: Factor) -> &FactorEffect {
        self.effects
            .iter()
            .find(|e| e.factor == factor)
            .expect("all factors probed")
    }

    /// Factors that move prices at this retailer.
    #[must_use]
    pub fn varying_factors(&self) -> Vec<Factor> {
        self.effects
            .iter()
            .filter(|e| e.varies)
            .map(|e| e.factor)
            .collect()
    }
}

/// Probe endpoints: client addresses at the locations the prober needs.
/// Build once from the vantage fleet and reuse across domains.
#[derive(Debug, Clone)]
pub struct ProbeSet {
    /// A US baseline (e.g. Boston).
    pub us_a: (Ipv4Addr, Location),
    /// A second US city (e.g. Chicago) for the city factor.
    pub us_b: (Ipv4Addr, Location),
    /// A third US city (e.g. New York) for the city factor.
    pub us_c: (Ipv4Addr, Location),
    /// A foreign endpoint (e.g. Finland) for the country factor.
    pub foreign: (Ipv4Addr, Location),
}

/// Relative tolerance for same-currency comparisons: anything above a
/// tenth of a percent is a real move (cent rounding is far below).
const SAME_CURRENCY_EPS: f64 = 0.001;

/// Sessions probed per product for the session factor (an A/B test with
/// treatment fraction ≥ 0.1 is detected with probability > 99.99 % over
/// 10 products × 6 sessions).
const SESSIONS_PER_PRODUCT: usize = 6;

/// Runs the controlled probe against one retailer.
///
/// `products` bounds the probe size; `base_day` must leave one spare day
/// in the FX series for the day factor. Each product's probes share one
/// [`PageReader`] scope, counted into `tally`: a probe whose page is
/// byte-identical to an earlier one from the same country (a retailer
/// that ignores the probed factor) is not parsed again.
#[must_use]
pub fn attribute(
    world: &WebWorld,
    probes: &ProbeSet,
    domain: &str,
    products: usize,
    base_day: u64,
    tally: &mut CopyTally,
) -> Option<Attribution> {
    let server = world.server_by_domain(domain)?;
    let selector = price_selector(server.spec().template_style);
    let slugs: Vec<&str> = server
        .catalog()
        .iter()
        .take(products)
        .map(|p| p.slug.as_str())
        .collect();
    if slugs.is_empty() {
        return None;
    }
    let t0 = SimTime::from_millis(base_day * 24 * 3_600_000 + 10 * 3_600_000);
    let t1 = SimTime::from_millis((base_day + 1) * 24 * 3_600_000 + 10 * 3_600_000);

    // Cross-currency pair: genuine iff the band filter confirms.
    let cross_ratio = |a: Price, b: Price, day: usize| -> (bool, f64) {
        match band_filter(world.fx(), &[a, b], day) {
            Some(v) if v.genuine => (true, v.nominal_ratio),
            _ => (false, 1.0),
        }
    };
    // Same-currency set: exact comparison, FX-free.
    let same_ratio = |prices: &[Price]| -> (bool, f64) {
        let vals: Vec<i64> = prices.iter().map(|p| p.amount.to_minor()).collect();
        let (lo, hi) = (
            *vals.iter().min().expect("nonempty"),
            *vals.iter().max().expect("nonempty"),
        );
        if lo <= 0 {
            return (false, 1.0);
        }
        let ratio = hi as f64 / lo as f64;
        (ratio > 1.0 + SAME_CURRENCY_EPS, ratio)
    };

    // `(varies, max_ratio)` per factor, in `Factor::ALL` order.
    let mut verdicts = [(false, 1.0f64); Factor::ALL.len()];
    let sid = [("sid", "9001")];
    for slug in slugs.iter().copied() {
        let mut reader = PageReader::new();
        let mut price = |(addr, loc): &(Ipv4Addr, Location), time, cookies: &[(&str, &str)]| {
            reader.own_page_price(
                world,
                &selector,
                domain,
                slug,
                (*addr, loc.country),
                time,
                cookies,
            )
        };
        // The unvaried request (US baseline, day t0, session 9001) is the
        // reference of the country, city, day and login factors. A fetch
        // is a pure function of its request, so it is made once.
        let base = price(&probes.us_a, t0, &sid);
        for (factor, verdict) in Factor::ALL.iter().zip(&mut verdicts) {
            let (v, r) = match factor {
                Factor::Country => {
                    let (Some(a), Some(b)) = (base, price(&probes.foreign, t0, &sid)) else {
                        continue;
                    };
                    cross_ratio(a, b, base_day as usize)
                }
                Factor::CityWithinCountry => {
                    let others = [&probes.us_b, &probes.us_c].map(|p| price(p, t0, &sid));
                    let ps: Vec<Price> = std::iter::once(base).chain(others).flatten().collect();
                    if ps.len() < 3 {
                        continue;
                    }
                    same_ratio(&ps)
                }
                Factor::Session => {
                    let ps: Vec<Price> = (0..SESSIONS_PER_PRODUCT)
                        .filter_map(|k| {
                            let sid_k = format!("77{k}");
                            price(&probes.us_a, t0, &[("sid", sid_k.as_str())])
                        })
                        .collect();
                    if ps.len() < 2 {
                        continue;
                    }
                    same_ratio(&ps)
                }
                Factor::Day => {
                    let (Some(a), Some(b)) = (base, price(&probes.us_a, t1, &sid)) else {
                        continue;
                    };
                    same_ratio(&[a, b])
                }
                Factor::Login => {
                    let login = [("sid", "9001"), ("login", "3")];
                    let (Some(a), Some(b)) = (base, price(&probes.us_a, t0, &login)) else {
                        continue;
                    };
                    same_ratio(&[a, b])
                }
            };
            verdict.0 |= v;
            verdict.1 = verdict.1.max(r);
        }
        *tally += reader.tally();
    }
    let effects = Factor::ALL
        .iter()
        .zip(verdicts)
        .map(|(&factor, (varies, max_ratio))| FactorEffect {
            factor,
            varies,
            max_ratio,
            products: slugs.len(),
        })
        .collect();
    Some(Attribution {
        domain: domain.to_owned(),
        effects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_net::geo::Country;
    use pd_util::Seed;

    fn rig() -> (WebWorld, ProbeSet) {
        rig_at(1307, 0.0)
    }

    /// The paper world at `seed`, its fetches failing transiently at
    /// `failure_rate`, with the four probe endpoints.
    fn rig_at(seed: u64, failure_rate: f64) -> (WebWorld, ProbeSet) {
        let seed = Seed::new(seed);
        let mut world = WebWorld::build(seed, pd_pricing::paper_retailers(seed), 160);
        world.set_failure_rate(failure_rate);
        let mk = |w: &mut WebWorld, c, city: &str| {
            let loc = Location::new(c, city);
            (w.allocate_client(&loc), loc)
        };
        let probes = ProbeSet {
            us_a: mk(&mut world, Country::UnitedStates, "Boston"),
            us_b: mk(&mut world, Country::UnitedStates, "Chicago"),
            us_c: mk(&mut world, Country::UnitedStates, "New York"),
            foreign: mk(&mut world, Country::Finland, "Tampere"),
        };
        (world, probes)
    }

    /// `attribute` as first written: one fetch and one extraction per
    /// probe (each copy in a scope of its own), the baseline request
    /// included, re-fetched by every factor that compares against it.
    fn reference_attribute(
        world: &WebWorld,
        probes: &ProbeSet,
        domain: &str,
        products: usize,
        base_day: u64,
    ) -> Option<Attribution> {
        let server = world.server_by_domain(domain)?;
        let selector = price_selector(server.spec().template_style);
        let slugs: Vec<String> = server
            .catalog()
            .iter()
            .take(products)
            .map(|p| p.slug.clone())
            .collect();
        if slugs.is_empty() {
            return None;
        }
        let day_ms = |day: u64| SimTime::from_millis(day * 24 * 3_600_000 + 10 * 3_600_000);
        let (t0, t1) = (day_ms(base_day), day_ms(base_day + 1));
        let price =
            |slug: &str, (addr, loc): &(Ipv4Addr, Location), time, cookies: &[(&str, &str)]| {
                PageReader::new().own_page_price(
                    world,
                    &selector,
                    domain,
                    slug,
                    (*addr, loc.country),
                    time,
                    cookies,
                )
            };
        let same = |ps: &[Price]| {
            let lo = ps
                .iter()
                .map(|p| p.amount.to_minor())
                .min()
                .expect("nonempty");
            let hi = ps
                .iter()
                .map(|p| p.amount.to_minor())
                .max()
                .expect("nonempty");
            if lo <= 0 {
                return (false, 1.0);
            }
            let ratio = hi as f64 / lo as f64;
            (ratio > 1.0 + SAME_CURRENCY_EPS, ratio)
        };
        let sid = [("sid", "9001")];
        let effects = Factor::ALL
            .iter()
            .map(|&factor| {
                let (mut varies, mut max_ratio) = (false, 1.0f64);
                for slug in &slugs {
                    let base = || price(slug, &probes.us_a, t0, &sid);
                    let (v, r) = match factor {
                        Factor::Country => match (base(), price(slug, &probes.foreign, t0, &sid)) {
                            (Some(a), Some(b)) => {
                                match band_filter(world.fx(), &[a, b], base_day as usize) {
                                    Some(v) if v.genuine => (true, v.nominal_ratio),
                                    _ => (false, 1.0),
                                }
                            }
                            _ => continue,
                        },
                        Factor::CityWithinCountry => {
                            let ps: Vec<Price> = [&probes.us_a, &probes.us_b, &probes.us_c]
                                .iter()
                                .filter_map(|p| price(slug, p, t0, &sid))
                                .collect();
                            if ps.len() < 3 {
                                continue;
                            }
                            same(&ps)
                        }
                        Factor::Session => {
                            let ps: Vec<Price> = (0..SESSIONS_PER_PRODUCT)
                                .filter_map(|k| {
                                    let sid_k = format!("77{k}");
                                    price(slug, &probes.us_a, t0, &[("sid", sid_k.as_str())])
                                })
                                .collect();
                            if ps.len() < 2 {
                                continue;
                            }
                            same(&ps)
                        }
                        Factor::Day => match (base(), price(slug, &probes.us_a, t1, &sid)) {
                            (Some(a), Some(b)) => same(&[a, b]),
                            _ => continue,
                        },
                        Factor::Login => {
                            let login = [("sid", "9001"), ("login", "3")];
                            match (base(), price(slug, &probes.us_a, t0, &login)) {
                                (Some(a), Some(b)) => same(&[a, b]),
                                _ => continue,
                            }
                        }
                    };
                    varies |= v;
                    max_ratio = max_ratio.max(r);
                }
                FactorEffect {
                    factor,
                    varies,
                    max_ratio,
                    products: slugs.len(),
                }
            })
            .collect();
        Some(Attribution {
            domain: domain.to_owned(),
            effects,
        })
    }

    #[test]
    fn one_baseline_fetch_matches_a_fetch_per_probe() {
        // With transient failures some probes fail: a failed copy must
        // neither be reused nor stand in for a later successful one.
        for (seed, failure_rate) in [(1307, 0.0), (2024, 0.0), (1307, 0.3), (2024, 0.3)] {
            let (world, probes) = rig_at(seed, failure_rate);
            for spec in pd_pricing::paper_retailers(Seed::new(seed)) {
                let domain = spec.domain.as_str();
                let mut tally = CopyTally::default();
                assert_eq!(
                    attribute(&world, &probes, domain, 8, 50, &mut tally),
                    reference_attribute(&world, &probes, domain, 8, 50),
                    "seed {seed}, failure rate {failure_rate}, {domain}"
                );
                assert_eq!(tally.copies, 8 * 12, "{domain}");
            }
        }
    }

    #[test]
    fn failures_are_extracted_not_reused() {
        // Every probe fails: no copy is a 200, so every one is extracted
        // (to `None`) and the memo never holds a failure.
        let (world, probes) = rig_at(1307, 1.0);
        let mut tally = CopyTally::default();
        let a = attribute(&world, &probes, "www.digitalrev.com", 4, 50, &mut tally)
            .expect("domain exists");
        assert!(a.varying_factors().is_empty(), "{a:?}");
        assert_eq!(
            tally,
            CopyTally {
                copies: 4 * 12,
                extracted: 4 * 12,
                resumed: 0
            }
        );
    }

    fn attr(world: &WebWorld, probes: &ProbeSet, domain: &str) -> Attribution {
        attribute(world, probes, domain, 10, 50, &mut CopyTally::default()).expect("domain exists")
    }

    #[test]
    fn digitalrev_is_location_only() {
        let (world, probes) = rig();
        let a = attr(&world, &probes, "www.digitalrev.com");
        assert!(a.effect(Factor::Country).varies);
        assert!((a.effect(Factor::Country).max_ratio - 1.26).abs() < 0.02);
        assert!(!a.effect(Factor::CityWithinCountry).varies);
        assert!(!a.effect(Factor::Session).varies);
        assert!(!a.effect(Factor::Day).varies);
        assert!(!a.effect(Factor::Login).varies);
        assert_eq!(a.varying_factors(), vec![Factor::Country]);
    }

    #[test]
    fn homedepot_varies_by_city() {
        let (world, probes) = rig();
        let a = attr(&world, &probes, "www.homedepot.com");
        assert!(
            a.effect(Factor::CityWithinCountry).varies,
            "city-level pricing must be attributed: {a:?}"
        );
        assert!(!a.effect(Factor::Session).varies);
        assert!(!a.effect(Factor::Login).varies);
    }

    #[test]
    fn amazon_varies_by_session_not_login() {
        let (world, probes) = rig();
        let a = attr(&world, &probes, "www.amazon.com");
        assert!(a.effect(Factor::Session).varies, "{a:?}");
        assert!(!a.effect(Factor::Login).varies, "{a:?}");
        assert!(a.effect(Factor::Country).varies);
        assert!(!a.effect(Factor::CityWithinCountry).varies);
    }

    #[test]
    fn booking_varies_by_day() {
        let (world, probes) = rig();
        let a = attr(&world, &probes, "www.booking.com");
        assert!(a.effect(Factor::Day).varies, "{a:?}");
        assert!(a.effect(Factor::Day).max_ratio < 1.12, "drift is small");
    }

    #[test]
    fn ab_test_retailer_attributed_to_session() {
        let (world, probes) = rig();
        let a = attr(&world, &probes, "www.sears.com");
        assert!(a.effect(Factor::Session).varies, "{a:?}");
        assert!(!a.effect(Factor::Country).varies, "{a:?}");
    }

    #[test]
    fn unknown_domain_is_none() {
        let (world, probes) = rig();
        let mut tally = CopyTally::default();
        assert!(attribute(&world, &probes, "gone.example", 5, 50, &mut tally).is_none());
        assert_eq!(tally, CopyTally::default());
    }
}
