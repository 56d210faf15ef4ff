//! The Sec. 4.4 personal-information experiments.
//!
//! Two harnesses, both holding **location and time fixed** as the paper
//! stresses:
//!
//! * [`persona_experiment`] — affluent vs. budget-conscious trained
//!   personas checking the same products. The paper finds *no* price
//!   differences; the simulation reproduces the null result end to end
//!   (personas ride a cookie the retailers demonstrably ignore).
//! * [`login_experiment`] — Kindle-style ebook prices for three logged-in
//!   accounts and a logged-out browser (Fig. 10). Prices vary per
//!   session, but the variation is uncorrelated with login — the paper's
//!   exact observation.

use crate::copies::{CopyTally, PageReader};
use pd_currency::Price;
use pd_net::clock::SimTime;
use pd_net::geo::Location;
use pd_util::Seed;
use pd_web::template::price_selector;
use pd_web::WebWorld;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// One product's prices across the four Fig. 10 series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoginRow {
    /// Product index (x-axis of Fig. 10).
    pub product: usize,
    /// Product slug.
    pub slug: String,
    /// Price without login.
    pub without_login: Option<Price>,
    /// Prices for users A, B, C.
    pub users: [Option<Price>; 3],
}

/// Result of the login experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoginExperiment {
    /// Retailer measured.
    pub domain: String,
    /// Per-product rows.
    pub rows: Vec<LoginRow>,
}

/// Result of the persona experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersonaExperiment {
    /// Retailers measured.
    pub domains: Vec<String>,
    /// Products checked per retailer.
    pub products_per_retailer: usize,
    /// Number of (retailer, product) pairs where affluent and budget
    /// personas saw different prices. The paper's result: **0**.
    pub differing_pairs: usize,
    /// Total pairs checked.
    pub total_pairs: usize,
}

/// The ebook slugs the login experiment measures for `domain` (up to
/// `products` of them). Splitting this out of [`login_experiment`] lets a
/// scheduler fan [`login_row`] per product.
#[must_use]
pub fn login_slugs(world: &WebWorld, domain: &str, products: usize) -> Vec<String> {
    let server = world
        .server_by_domain(domain)
        .expect("login experiment targets a known domain");
    server
        .catalog()
        .iter()
        .filter(|p| p.category == pd_pricing::Category::Ebooks)
        .take(products)
        .map(|p| p.slug.clone())
        .collect()
}

/// Parallel-safe entry point: one product's Fig. 10 row — the four
/// identities' prices for `slug`. Pure in all inputs; rows may be
/// computed in any order, or concurrently, and merged by `product` index.
/// The row's copies share one [`PageReader`] scope, counted into
/// `tally` (each identity is its own session, so on a retailer with
/// session jitter every copy differs and all four are extracted, the
/// last three by resuming the parse of the one before).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn login_row(
    world: &WebWorld,
    seed: Seed,
    domain: &str,
    location: &Location,
    addr: Ipv4Addr,
    time: SimTime,
    product: usize,
    slug: &str,
    tally: &mut CopyTally,
) -> LoginRow {
    // Four distinct browser sessions, fixed across products.
    let session_base = seed.derive("login-exp").value() | 1;
    let sid = |k: u64| (session_base.wrapping_add(k * 7919)).to_string();
    // One parsed highlight for the row's four fetches.
    let highlight = world
        .server_by_domain(domain)
        .map(|server| price_selector(server.spec().template_style));
    let mut reader = PageReader::new();
    let mut price = |cookies: &[(&str, &str)]| {
        let highlight = highlight.as_ref()?;
        reader.own_page_price(
            world,
            highlight,
            domain,
            slug,
            (addr, location.country),
            time,
            cookies,
        )
    };
    let without_login = price(&[("sid", &sid(0))]);
    let users = [1u64, 2, 3].map(|k| price(&[("sid", &sid(k)), ("login", &k.to_string())]));
    *tally += reader.tally();
    LoginRow {
        product,
        slug: slug.to_owned(),
        without_login,
        users,
    }
}

/// Runs the login experiment against `domain` (the paper used
/// amazon.com's Kindle store): `products` ebooks, one fixed location,
/// one fixed instant, four browser identities.
///
/// Each identity gets its own session (separate browsers), which is what
/// makes session-keyed jitter visible; the login cookie itself is the
/// controlled variable.
#[must_use]
pub fn login_experiment(
    world: &WebWorld,
    seed: Seed,
    domain: &str,
    location: &Location,
    addr: Ipv4Addr,
    time: SimTime,
    products: usize,
) -> LoginExperiment {
    let rows = login_slugs(world, domain, products)
        .iter()
        .enumerate()
        .map(|(i, slug)| {
            login_row(
                world,
                seed,
                domain,
                location,
                addr,
                time,
                i,
                slug,
                &mut CopyTally::default(),
            )
        })
        .collect();
    LoginExperiment {
        domain: domain.to_owned(),
        rows,
    }
}

impl LoginExperiment {
    /// Fraction of products where at least two identities saw different
    /// prices (the paper: variation exists).
    #[must_use]
    pub fn variation_fraction(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        let varied = self
            .rows
            .iter()
            .filter(|r| {
                let mut prices: Vec<_> = r
                    .users
                    .iter()
                    .copied()
                    .chain([r.without_login])
                    .flatten()
                    .map(|p| p.amount)
                    .collect();
                prices.sort();
                prices.dedup();
                prices.len() > 1
            })
            .count();
        varied as f64 / self.rows.len() as f64
    }

    /// Pearson correlation between "is logged in" (0/1) and price, over
    /// all (product, identity) pairs. The paper's claim: ~no correlation.
    #[must_use]
    pub fn login_price_correlation(&self) -> Option<f64> {
        let mut logged = Vec::new();
        let mut price = Vec::new();
        for r in &self.rows {
            // Normalize by the product's mean so expensive products don't
            // dominate the correlation.
            let all: Vec<f64> = r
                .users
                .iter()
                .copied()
                .chain([r.without_login])
                .flatten()
                .map(|p| p.amount.to_f64())
                .collect();
            if all.len() < 4 {
                continue;
            }
            let mean: f64 = all.iter().sum::<f64>() / all.len() as f64;
            if let Some(p) = r.without_login {
                logged.push(0.0);
                price.push(p.amount.to_f64() / mean);
            }
            for u in r.users.iter().flatten() {
                logged.push(1.0);
                price.push(u.amount.to_f64() / mean);
            }
        }
        pd_util::stats::pearson(&logged, &price)
    }
}

/// Parallel-safe entry point: the persona A/B pairs for one domain.
/// Returns `(differing_pairs, total_pairs)`; unknown domains yield
/// `(0, 0)`. Pure in all inputs, so domains may be checked in any order,
/// or concurrently, and the counts summed. The domain's copies share one
/// [`PageReader`] scope, counted into `tally`: a retailer that ignores
/// the persona cookie serves both personas the same bytes, and the
/// second copy is not parsed again.
#[must_use]
pub fn persona_pairs(
    world: &WebWorld,
    domain: &str,
    location: &Location,
    addr: Ipv4Addr,
    time: SimTime,
    products: usize,
    tally: &mut CopyTally,
) -> (usize, usize) {
    let Some(server) = world.server_by_domain(domain) else {
        return (0, 0);
    };
    let highlight = price_selector(server.spec().template_style);
    let mut reader = PageReader::new();
    let mut differing = 0;
    let mut total = 0;
    for product in server.catalog().iter().take(products) {
        let [affluent, budget] = ["affluent", "budget"].map(|persona| {
            reader.own_page_price(
                world,
                &highlight,
                domain,
                &product.slug,
                (addr, location.country),
                time,
                &[("sid", "777"), ("ph", persona)],
            )
        });
        if let (Some(a), Some(b)) = (affluent, budget) {
            total += 1;
            if a != b {
                differing += 1;
            }
        }
    }
    *tally += reader.tally();
    (differing, total)
}

/// Runs the persona experiment: for each domain, check `products`
/// products with an affluent and a budget persona from the same location,
/// same time, same session. Returns the differing-pair count (paper: 0).
#[must_use]
pub fn persona_experiment(
    world: &WebWorld,
    domains: &[&str],
    location: &Location,
    addr: Ipv4Addr,
    time: SimTime,
    products: usize,
) -> PersonaExperiment {
    let mut differing = 0;
    let mut total = 0;
    for domain in domains {
        let (d, t) = persona_pairs(
            world,
            domain,
            location,
            addr,
            time,
            products,
            &mut CopyTally::default(),
        );
        differing += d;
        total += t;
    }
    PersonaExperiment {
        domains: domains.iter().map(|d| (*d).to_owned()).collect(),
        products_per_retailer: products,
        differing_pairs: differing,
        total_pairs: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_net::geo::Country;
    use pd_pricing::paper_retailers;
    use pd_web::WebWorld;

    fn world() -> (WebWorld, Ipv4Addr, Location) {
        let seed = Seed::new(1307);
        let mut world = WebWorld::build(seed, paper_retailers(seed), 160);
        let loc = Location::new(Country::UnitedStates, "Boston");
        let addr = world.allocate_client(&loc);
        (world, addr, loc)
    }

    #[test]
    fn login_experiment_shows_variation_without_correlation() {
        let (world, addr, loc) = world();
        let exp = login_experiment(
            &world,
            Seed::new(1307),
            "www.amazon.com",
            &loc,
            addr,
            SimTime::from_millis(40 * 24 * 3_600_000),
            40,
        );
        assert_eq!(exp.rows.len(), 40);
        // Fig. 10: prices DO vary across identities...
        assert!(
            exp.variation_fraction() > 0.5,
            "variation {}",
            exp.variation_fraction()
        );
        // ...but the variation is uncorrelated with login.
        let corr = exp.login_price_correlation().unwrap_or(0.0);
        assert!(corr.abs() < 0.25, "login correlation {corr}");
    }

    #[test]
    fn login_prices_are_in_ebook_range() {
        let (world, addr, loc) = world();
        let exp = login_experiment(
            &world,
            Seed::new(1307),
            "www.amazon.com",
            &loc,
            addr,
            SimTime::from_millis(40 * 24 * 3_600_000),
            40,
        );
        for row in &exp.rows {
            for p in row
                .users
                .iter()
                .copied()
                .chain([row.without_login])
                .flatten()
            {
                let usd = p.amount.to_f64();
                // Fig. 10's y-axis: roughly $4–$30 ebooks.
                assert!((2.0..40.0).contains(&usd), "{usd}");
            }
        }
    }

    #[test]
    fn persona_experiment_reproduces_null_result() {
        let (world, addr, loc) = world();
        let exp = persona_experiment(
            &world,
            &["www.amazon.com", "www.digitalrev.com", "www.hotels.com"],
            &loc,
            addr,
            SimTime::from_millis(40 * 24 * 3_600_000),
            20,
        );
        assert!(exp.total_pairs >= 50);
        assert_eq!(exp.differing_pairs, 0, "personas must not affect prices");
    }

    /// `persona_pairs` with every copy extracted on its own (a scope per
    /// fetch): the no-reuse reference.
    fn reference_pairs(
        world: &WebWorld,
        domain: &str,
        (addr, loc): (Ipv4Addr, &Location),
        time: SimTime,
        products: usize,
    ) -> (usize, usize) {
        let Some(server) = world.server_by_domain(domain) else {
            return (0, 0);
        };
        let highlight = price_selector(server.spec().template_style);
        let (mut differing, mut total) = (0, 0);
        for product in server.catalog().iter().take(products) {
            let price = |persona| {
                PageReader::new().own_page_price(
                    world,
                    &highlight,
                    domain,
                    &product.slug,
                    (addr, loc.country),
                    time,
                    &[("sid", "777"), ("ph", persona)],
                )
            };
            if let (Some(a), Some(b)) = (price("affluent"), price("budget")) {
                total += 1;
                differing += usize::from(a != b);
            }
        }
        (differing, total)
    }

    #[test]
    fn persona_pairs_match_an_extraction_per_copy() {
        // With transient failures some pairs drop out: a failed copy must
        // neither be reused nor stand in for a later successful one.
        for failure_rate in [0.0, 0.3] {
            let (mut world, addr, loc) = world();
            world.set_failure_rate(failure_rate);
            let mut dropped = 0;
            for spec in paper_retailers(Seed::new(1307)) {
                let domain = spec.domain.as_str();
                for day in [40, 41, 42] {
                    let time = SimTime::from_millis(day * 24 * 3_600_000);
                    let mut tally = CopyTally::default();
                    let (differing, total) =
                        persona_pairs(&world, domain, &loc, addr, time, 8, &mut tally);
                    assert_eq!(
                        (differing, total),
                        reference_pairs(&world, domain, (addr, &loc), time, 8),
                        "{domain}, day {day}, failure rate {failure_rate}"
                    );
                    assert_eq!(tally.copies, 16, "{domain}");
                    assert!(tally.extracted >= 8, "{domain}: {tally:?}");
                    dropped += 8 - total;
                }
            }
            assert_eq!(dropped > 0, failure_rate > 0.0, "dropped pairs: {dropped}");
        }
    }

    /// `login_row` with every copy extracted on its own (a scope per
    /// fetch): the no-reuse reference.
    fn reference_row(
        world: &WebWorld,
        seed: Seed,
        domain: &str,
        (addr, loc): (Ipv4Addr, &Location),
        time: SimTime,
        slug: &str,
    ) -> [Option<Price>; 4] {
        let session_base = seed.derive("login-exp").value() | 1;
        let sid = |k: u64| (session_base.wrapping_add(k * 7919)).to_string();
        let highlight = price_selector(
            world
                .server_by_domain(domain)
                .unwrap()
                .spec()
                .template_style,
        );
        [0u64, 1, 2, 3].map(|k| {
            let login = k.to_string();
            let sid = sid(k);
            let mut cookies = vec![("sid", sid.as_str())];
            if k > 0 {
                cookies.push(("login", login.as_str()));
            }
            PageReader::new().own_page_price(
                world,
                &highlight,
                domain,
                slug,
                (addr, loc.country),
                time,
                &cookies,
            )
        })
    }

    #[test]
    fn login_rows_match_an_extraction_per_copy() {
        // With transient failures some identities see no price: a failed
        // copy must neither be reused nor be a later copy's resume base.
        let seed = Seed::new(1307);
        for failure_rate in [0.0, 0.3] {
            let (mut world, addr, loc) = world();
            world.set_failure_rate(failure_rate);
            let (mut missing, mut resumed) = (0, 0);
            for spec in paper_retailers(seed) {
                let domain = spec.domain.as_str();
                let server = world.server_by_domain(domain).unwrap();
                for (i, product) in server.catalog().iter().take(3).enumerate() {
                    for day in [40, 41] {
                        let time = SimTime::from_millis(day * 24 * 3_600_000);
                        let mut tally = CopyTally::default();
                        let row = login_row(
                            &world,
                            seed,
                            domain,
                            &loc,
                            addr,
                            time,
                            i,
                            &product.slug,
                            &mut tally,
                        );
                        let [without, a, b, c] =
                            reference_row(&world, seed, domain, (addr, &loc), time, &product.slug);
                        assert_eq!(
                            (row.without_login, row.users),
                            (without, [a, b, c]),
                            "{domain} {}, day {day}, failure rate {failure_rate}",
                            product.slug
                        );
                        assert_eq!(tally.copies, 4, "{domain}");
                        missing += [without, a, b, c].iter().filter(|p| p.is_none()).count();
                        resumed += tally.resumed;
                    }
                }
            }
            assert_eq!(missing > 0, failure_rate > 0.0, "missing prices: {missing}");
            assert!(resumed > 0, "failure rate {failure_rate}");
        }
    }

    #[test]
    fn experiment_is_deterministic() {
        let (world, addr, loc) = world();
        let t = SimTime::from_millis(10 * 24 * 3_600_000);
        let a = login_experiment(&world, Seed::new(5), "www.amazon.com", &loc, addr, t, 10);
        let b = login_experiment(&world, Seed::new(5), "www.amazon.com", &loc, addr, t, 10);
        assert_eq!(a, b);
    }
}
