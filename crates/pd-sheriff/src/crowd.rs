//! The simulated crowd.
//!
//! Sec. 3.2: "1500 requests (between Jan–May 2013) … issued by 340
//! different users from 18 countries … checked products from 600
//! domains." The crowd model reproduces those aggregates:
//!
//! * users are spread over all 18 countries with a popularity skew
//!   (US/UK/DE-heavy, as browser-extension userbases are),
//! * each user has 1–3 interest categories; they check products from
//!   retailers carrying those categories, weighted by retailer
//!   popularity — so amazon-likes collect tens of checks while niche
//!   local stores get a handful (the long tail that "underscores the
//!   usefulness of crowdsourcing"),
//! * checks are spread over the 151-day window,
//! * a small fraction of checks carry the paper's noise: product
//!   customization not encoded in the URI, and mis-highlights.

use crate::copies::{CopyTally, PageReader};
use crate::fanout::Sheriff;
use crate::measurement::{Measurement, MeasurementStore, NoiseTruth};
use pd_html::Selector;
use pd_net::clock::{SimDuration, SimTime};
use pd_net::geo::{Country, Location};
use pd_util::{RequestId, Seed, UserId};
use pd_web::template::{price_selector, FAMILY_COUNT};
use pd_web::{Request, WebWorld};
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// Crowd-simulation parameters. Defaults reproduce the paper's
/// aggregates; tests shrink them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrowdConfig {
    /// Number of $heriff users.
    pub users: usize,
    /// Total number of checks to issue.
    pub checks: usize,
    /// Length of the collection window in days.
    pub window_days: u64,
    /// Probability that a check is a customization mismatch.
    pub customization_noise: f64,
    /// Probability that a check highlights the wrong element.
    pub mis_highlight_noise: f64,
    /// Optional locale emphasis (the `locale-sweep` scenario): the given
    /// country's population weight is boosted ×4 before normalization.
    /// `None` reproduces the paper's measured skew exactly.
    pub bias_country: Option<Country>,
}

impl Default for CrowdConfig {
    fn default() -> Self {
        CrowdConfig {
            users: 340,
            checks: 1_500,
            window_days: 151, // Jan 1 – May 31, 2013
            customization_noise: 0.04,
            mis_highlight_noise: 0.03,
            bias_country: None,
        }
    }
}

/// One simulated $heriff user.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrowdUser {
    /// Dense user id.
    pub id: UserId,
    /// Where they live (their own page renders from here).
    pub location: Location,
    /// Their client address.
    addr: std::net::Ipv4Addr,
    /// Interest categories (indices into `Category::ALL`).
    pub interests: Vec<usize>,
}

/// User-country skew: extension userbases concentrate in a few countries
/// while still covering all 18. `bias` boosts one country's weight ×4
/// (same draw count either way, so the unbiased stream is unchanged).
fn user_country(rng: &mut StdRng, bias: Option<Country>) -> Country {
    let weights: [(Country, f64); 18] = [
        (Country::UnitedStates, 0.22),
        (Country::Spain, 0.14),
        (Country::UnitedKingdom, 0.10),
        (Country::Germany, 0.09),
        (Country::Italy, 0.07),
        (Country::France, 0.06),
        (Country::Finland, 0.05),
        (Country::Belgium, 0.04),
        (Country::Brazil, 0.04),
        (Country::Netherlands, 0.035),
        (Country::Poland, 0.03),
        (Country::Portugal, 0.025),
        (Country::Greece, 0.02),
        (Country::Sweden, 0.02),
        (Country::Ireland, 0.02),
        (Country::Canada, 0.02),
        (Country::Australia, 0.015),
        (Country::Japan, 0.015),
    ];
    let boosted = |c: Country, w: f64| if bias == Some(c) { w * 4.0 } else { w };
    let total: f64 = weights.iter().map(|(c, w)| boosted(*c, *w)).sum();
    let mut draw = rng.random_range(0.0..total);
    for (c, w) in weights {
        let w = boosted(c, w);
        if draw < w {
            return c;
        }
        draw -= w;
    }
    Country::UnitedStates
}

/// The population's random draws, one `(home country, interest
/// categories)` pair per user, in user order. Client addresses are not
/// drawn: [`Crowd::new`] allocates them from the web world.
fn population(seed: Seed, config: &CrowdConfig) -> Vec<(Country, Vec<usize>)> {
    let mut rng = seed.derive("crowd").derive("population").rng();
    (0..config.users)
        .map(|_| {
            let country = user_country(&mut rng, config.bias_country);
            let n_interests = rng.random_range(1..=3);
            let mut interests: Vec<usize> = (0..19).collect();
            interests.shuffle(&mut rng);
            interests.truncate(n_interests);
            (country, interests)
        })
        .collect()
}

fn distinct_countries(countries: impl Iterator<Item = Country>) -> usize {
    countries.collect::<std::collections::HashSet<_>>().len()
}

impl CrowdUser {
    /// The user's client IP address (needed by the cleaning refetch).
    #[must_use]
    pub fn addr(&self) -> std::net::Ipv4Addr {
        self.addr
    }
}

/// The crowd: users plus the measurement campaign driver.
#[derive(Debug)]
pub struct Crowd {
    users: Vec<CrowdUser>,
    config: CrowdConfig,
    seed: Seed,
    /// Each template family's price highlight, parsed once, not per check.
    price_highlights: Vec<Selector>,
    /// The promo banner a mis-highlighting user picks instead.
    promo_highlight: Selector,
}

impl Crowd {
    /// Creates the user population (allocating their client addresses in
    /// `world`).
    #[must_use]
    pub fn new(seed: Seed, config: CrowdConfig, world: &mut WebWorld) -> Self {
        let users = population(seed, &config)
            .into_iter()
            .enumerate()
            .map(|(i, (country, interests))| {
                let location = Location::new(country, "Home");
                let addr = world.allocate_client(&location);
                CrowdUser {
                    id: UserId::new(i as u32),
                    location,
                    addr,
                    interests,
                }
            })
            .collect();
        Crowd {
            users,
            config,
            seed: seed.derive("crowd"),
            price_highlights: (0..FAMILY_COUNT).map(price_selector).collect(),
            promo_highlight: Selector::parse(".promo-banner > em").expect("static selector"),
        }
    }

    /// Number of distinct user countries the population [`Crowd::new`]
    /// would create for `seed` and `config` — drawn without a web world.
    #[must_use]
    pub fn planned_country_count(seed: Seed, config: &CrowdConfig) -> usize {
        distinct_countries(population(seed, config).into_iter().map(|(c, _)| c))
    }

    /// The user population.
    #[must_use]
    pub fn users(&self) -> &[CrowdUser] {
        &self.users
    }

    /// Number of distinct user countries (the paper reports 18).
    #[must_use]
    pub fn country_count(&self) -> usize {
        distinct_countries(self.users.iter().map(|u| u.location.country))
    }

    /// Plans the whole campaign: draws every stochastic choice (user,
    /// retailer, product, time, noise) for `config.checks` checks from
    /// the campaign RNG, **without touching the network**. The returned
    /// plans are in check order; executing them (in any order) and
    /// merging by `check_idx` reproduces [`run_campaign`] exactly.
    ///
    /// [`run_campaign`]: Crowd::run_campaign
    #[must_use]
    pub fn plan_campaign(&self, world: &WebWorld) -> Vec<CheckPlan> {
        let mut rng = self.seed.derive("campaign").rng();
        let servers = world.servers();
        (0..self.config.checks)
            .map(|check_idx| {
                let user_index = rng.random_range(0..self.users.len());
                let user = &self.users[user_index];
                // Candidate retailers: those selling an interest category;
                // choice weights are popularity × interest match.
                let weights: Vec<f64> = servers
                    .iter()
                    .map(|s| {
                        let matches = s
                            .spec()
                            .categories
                            .iter()
                            .any(|c| user.interests.contains(&c.index()));
                        if matches {
                            s.spec().popularity
                        } else {
                            s.spec().popularity * 0.05 // occasional off-interest browse
                        }
                    })
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut draw = rng.random_range(0.0..total);
                let mut chosen = 0;
                for (i, w) in weights.iter().enumerate() {
                    if draw < *w {
                        chosen = i;
                        break;
                    }
                    draw -= w;
                }
                let server = &servers[chosen];
                let catalog = server.catalog();
                let pidx = rng.random_range(0..catalog.len());
                let product = catalog.product(pd_util::ProductId::new(pidx as u32));

                // Check time: uniform day, business-ish hour.
                let day = rng.random_range(0..self.config.window_days);
                let ms = rng.random_range(8 * 3_600_000..22 * 3_600_000u64);
                let time =
                    SimTime::from_millis(day * 24 * 3_600_000) + SimDuration::from_millis(ms);

                // Noise lottery.
                let noise_draw: f64 = rng.random();
                let noise = if noise_draw < self.config.customization_noise {
                    NoiseTruth::Customization
                } else if noise_draw
                    < self.config.customization_noise + self.config.mis_highlight_noise
                {
                    NoiseTruth::MisHighlight
                } else {
                    NoiseTruth::Clean
                };

                CheckPlan {
                    check_idx,
                    user_index,
                    domain: server.spec().domain.clone(),
                    slug: product.slug.clone(),
                    template_style: server.spec().template_style,
                    time,
                    noise,
                }
            })
            .collect()
    }

    /// Parallel-safe entry point: executes one planned check end to end
    /// (render the user's own page, capture the highlight, fan out),
    /// adding the check's copies, extractions and resumed parses to
    /// `tally` ([`PageReader::tally`]). Pure in all inputs — plans may be
    /// executed in any order, or concurrently, and merged by plan order.
    ///
    /// # Panics
    ///
    /// Panics if the plan's `user_index` is out of range for this crowd.
    #[must_use]
    pub fn execute_check(
        &self,
        world: &WebWorld,
        sheriff: &Sheriff,
        plan: &CheckPlan,
        tally: &mut CopyTally,
    ) -> Option<Measurement> {
        // Highlight: the price element, or — mis-highlight noise — the promo.
        let highlight = if plan.noise == NoiseTruth::MisHighlight {
            &self.promo_highlight
        } else {
            &self.price_highlights[usize::from(plan.template_style % FAMILY_COUNT)]
        };
        run_one_check(
            world,
            sheriff,
            &self.users[plan.user_index],
            &plan.domain,
            &plan.slug,
            highlight,
            plan.time,
            plan.noise,
            plan.check_idx,
            tally,
        )
    }

    /// Runs the whole crowdsourced campaign: `config.checks` checks
    /// through `sheriff`, recorded into a fresh store. Equivalent to
    /// planning with [`Crowd::plan_campaign`] and executing every plan in
    /// order.
    #[must_use]
    pub fn run_campaign(&self, world: &WebWorld, sheriff: &Sheriff) -> MeasurementStore {
        let mut store = MeasurementStore::new();
        for plan in self.plan_campaign(world) {
            if let Some(m) = self.execute_check(world, sheriff, &plan, &mut CopyTally::default()) {
                store.push(m);
            }
        }
        store
    }
}

/// One planned crowd check: every stochastic decision made up front, so
/// execution is a pure function of (world, sheriff, plan) and can be
/// fanned across worker threads deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckPlan {
    /// Position in the campaign (merge key for deterministic fan-out).
    pub check_idx: usize,
    /// Index of the issuing user in [`Crowd::users`].
    pub user_index: usize,
    /// Retailer domain to check.
    pub domain: String,
    /// Product slug (URI path is `/product/<slug>`).
    pub slug: String,
    /// The retailer's template style (selects the price highlight).
    pub template_style: u8,
    /// Synchronized check instant.
    pub time: SimTime,
    /// Ground-truth noise label drawn for this check.
    pub noise: NoiseTruth,
}

/// Executes one check end to end: render the user's own page, capture the
/// highlight, fan out, record. Returns `None` when even the user's own
/// page failed (never happens for registered domains; kept total anyway).
#[allow(clippy::too_many_arguments)]
fn run_one_check(
    world: &WebWorld,
    sheriff: &Sheriff,
    user: &CrowdUser,
    domain: &str,
    slug: &str,
    highlight: &Selector,
    time: SimTime,
    noise: NoiseTruth,
    check_idx: usize,
    tally: &mut CopyTally,
) -> Option<Measurement> {
    let path = format!("/product/{slug}");
    let own_req = Request::get(domain, &path, user.addr, time);
    // The user's own copy opens the check's scope: the vantage copies
    // resume from its parse.
    let mut reader = PageReader::new();
    let (extractor, own_price) =
        reader.own_copy(&world.fetch(&own_req), highlight, user.location.country)?;

    // Customization noise: the user actually configured a +15 % variant;
    // their *displayed* price differs from what the URI serves.
    let user_price = own_price.map(|price| {
        if noise == NoiseTruth::Customization {
            pd_currency::Price::new(price.amount.scale(1.15), price.currency)
        } else {
            price
        }
    });

    let observations = sheriff.check_with(world, domain, &path, &extractor, time, &[], &mut reader);
    *tally += reader.tally();

    Some(Measurement {
        request: RequestId::new(check_idx as u32), // overwritten by store
        user: user.id,
        domain: domain.to_owned(),
        product_slug: slug.to_owned(),
        time,
        user_price,
        observations,
        noise_truth: noise,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_net::ip::IpAllocator;
    use pd_net::latency::LatencyModel;
    use pd_net::vantage::paper_vantage_points;
    use pd_pricing::{filler_retailers, paper_retailers};

    fn small_world() -> (WebWorld, Sheriff) {
        let seed = Seed::new(1307);
        let mut specs = paper_retailers(seed);
        specs.extend(filler_retailers(seed, 30));
        let mut world = WebWorld::build(seed, specs, 160);
        let mut alloc = IpAllocator::new();
        let vps: Vec<_> = paper_vantage_points(&mut alloc)
            .into_iter()
            .map(|mut vp| {
                vp.addr = world.allocate_client(&vp.location);
                vp
            })
            .collect();
        let sheriff = Sheriff::new(vps, LatencyModel::new(seed));
        (world, sheriff)
    }

    fn small_config() -> CrowdConfig {
        CrowdConfig {
            users: 40,
            checks: 80,
            window_days: 30,
            ..CrowdConfig::default()
        }
    }

    #[test]
    fn population_covers_many_countries() {
        let (mut world, _) = small_world();
        let crowd = Crowd::new(Seed::new(1307), CrowdConfig::default(), &mut world);
        assert_eq!(crowd.users().len(), 340);
        // Full-size population covers all 18 countries.
        assert_eq!(crowd.country_count(), 18);
    }

    #[test]
    fn planned_country_count_matches_the_built_population() {
        for seed in [1, 5, 1307] {
            for config in [
                small_config(),
                CrowdConfig {
                    users: 7,
                    bias_country: Some(Country::Japan),
                    ..small_config()
                },
            ] {
                let (mut world, _) = small_world();
                let crowd = Crowd::new(Seed::new(seed), config.clone(), &mut world);
                assert_eq!(
                    Crowd::planned_country_count(Seed::new(seed), &config),
                    crowd.country_count(),
                    "seed {seed}, {config:?}"
                );
            }
        }
    }

    #[test]
    fn population_is_deterministic() {
        let (mut w1, _) = small_world();
        let (mut w2, _) = small_world();
        let a = Crowd::new(Seed::new(5), small_config(), &mut w1);
        let b = Crowd::new(Seed::new(5), small_config(), &mut w2);
        for (ua, ub) in a.users().iter().zip(b.users()) {
            assert_eq!(ua.location, ub.location);
            assert_eq!(ua.interests, ub.interests);
        }
    }

    #[test]
    fn campaign_produces_requested_checks() {
        let (mut world, sheriff) = small_world();
        let crowd = Crowd::new(Seed::new(1307), small_config(), &mut world);
        let store = crowd.run_campaign(&world, &sheriff);
        assert_eq!(store.len(), 80);
        // Every measurement has 14 observations.
        assert!(store.records().iter().all(|m| m.observations.len() == 14));
    }

    #[test]
    fn campaign_is_deterministic() {
        let (mut w1, s1) = small_world();
        let crowd1 = Crowd::new(Seed::new(7), small_config(), &mut w1);
        let store1 = crowd1.run_campaign(&w1, &s1);
        let (mut w2, s2) = small_world();
        let crowd2 = Crowd::new(Seed::new(7), small_config(), &mut w2);
        let store2 = crowd2.run_campaign(&w2, &s2);
        assert_eq!(store1.len(), store2.len());
        for (a, b) in store1.records().iter().zip(store2.records()) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.product_slug, b.product_slug);
            assert_eq!(a.prices(), b.prices());
        }
    }

    #[test]
    fn planned_execution_matches_run_campaign() {
        let (mut world, sheriff) = small_world();
        let crowd = Crowd::new(Seed::new(7), small_config(), &mut world);
        let direct = crowd.run_campaign(&world, &sheriff);
        // Execute the plans out of order, then merge by plan order — the
        // store must come out identical (this is the scheduler contract).
        let plans = crowd.plan_campaign(&world);
        let mut results: Vec<(usize, Measurement)> = plans
            .iter()
            .rev()
            .filter_map(|p| {
                crowd
                    .execute_check(&world, &sheriff, p, &mut CopyTally::default())
                    .map(|m| (p.check_idx, m))
            })
            .collect();
        results.sort_by_key(|(idx, _)| *idx);
        let mut merged = MeasurementStore::new();
        for (_, m) in results {
            merged.push(m);
        }
        assert_eq!(direct.len(), merged.len());
        for (a, b) in direct.records().iter().zip(merged.records()) {
            assert_eq!(a, b);
        }
    }

    /// `execute_check` with nothing reused: the user's own page parsed
    /// alone with `pd_html::parse`, and observation `i` fetched and
    /// extracted on its own by `Sheriff::check_one`.
    fn reference_check(
        crowd: &Crowd,
        world: &WebWorld,
        sheriff: &Sheriff,
        plan: &CheckPlan,
    ) -> Option<Measurement> {
        let user = &crowd.users[plan.user_index];
        let highlight = if plan.noise == NoiseTruth::MisHighlight {
            &crowd.promo_highlight
        } else {
            &crowd.price_highlights[usize::from(plan.template_style % FAMILY_COUNT)]
        };
        let path = format!("/product/{}", plan.slug);
        let own = world.fetch(&Request::get(&plan.domain, &path, user.addr, plan.time));
        if own.status.code() != 200 {
            return None;
        }
        let own_doc = pd_html::parse(&own.body);
        let extractor = pd_extract::HighlightExtractor::from_highlight(&own_doc, highlight)?;
        let locale = pd_currency::Locale::of_country(user.location.country);
        let user_price = extractor.extract(&own_doc, Some(locale)).ok().map(|e| {
            if plan.noise == NoiseTruth::Customization {
                pd_currency::Price::new(e.price.amount.scale(1.15), e.price.currency)
            } else {
                e.price
            }
        });
        let observations = (0..sheriff.vantage_points().len())
            .map(|i| sheriff.check_one(world, &plan.domain, &path, &extractor, plan.time, &[], i))
            .collect();
        Some(Measurement {
            request: RequestId::new(plan.check_idx as u32),
            user: user.id,
            domain: plan.domain.clone(),
            product_slug: plan.slug.clone(),
            time: plan.time,
            user_price,
            observations,
            noise_truth: plan.noise,
        })
    }

    #[test]
    fn executed_checks_match_a_reference_that_reuses_nothing() {
        // The own copy seeds the vantage copies' parses; with transient
        // failures some own pages, and some vantage copies, fail.
        for failure_rate in [0.0, 0.3] {
            let (mut world, sheriff) = small_world();
            let crowd = Crowd::new(Seed::new(1307), small_config(), &mut world);
            world.set_failure_rate(failure_rate);
            let (mut dropped, mut failed) = (0, 0);
            let mut tally = CopyTally::default();
            for plan in crowd.plan_campaign(&world) {
                let executed = crowd.execute_check(&world, &sheriff, &plan, &mut tally);
                let reference = reference_check(&crowd, &world, &sheriff, &plan);
                assert_eq!(executed, reference, "check {}", plan.check_idx);
                dropped += usize::from(executed.is_none());
                failed += executed
                    .iter()
                    .flat_map(|m| &m.observations)
                    .filter(|o| o.price.is_none())
                    .count();
            }
            assert_eq!(dropped > 0, failure_rate > 0.0, "dropped checks: {dropped}");
            assert_eq!(failed > 0, failure_rate > 0.0, "failed copies: {failed}");
            assert!(tally.resumed > 0, "{tally:?}");
        }
    }

    #[test]
    fn bias_country_shifts_population_without_breaking_determinism() {
        let (mut w1, _) = small_world();
        let (mut w2, _) = small_world();
        let mut biased_cfg = small_config();
        biased_cfg.users = 200;
        biased_cfg.bias_country = Some(Country::Germany);
        let mut plain_cfg = biased_cfg.clone();
        plain_cfg.bias_country = None;
        let biased = Crowd::new(Seed::new(11), biased_cfg, &mut w1);
        let plain = Crowd::new(Seed::new(11), plain_cfg, &mut w2);
        let count = |c: &Crowd| {
            c.users()
                .iter()
                .filter(|u| u.location.country == Country::Germany)
                .count()
        };
        assert!(
            count(&biased) > count(&plain),
            "bias ×4 must enlarge the German cohort: {} vs {}",
            count(&biased),
            count(&plain)
        );
    }

    #[test]
    fn popular_retailers_collect_more_checks() {
        let (mut world, sheriff) = small_world();
        let mut cfg = small_config();
        cfg.checks = 300;
        let crowd = Crowd::new(Seed::new(1307), cfg, &mut world);
        let store = crowd.run_campaign(&world, &sheriff);
        let amazon = store.by_domain("www.amazon.com").count();
        let bookdep = store.by_domain("www.bookdepository.co.uk").count();
        assert!(
            amazon > bookdep,
            "popularity skew: amazon {amazon} vs bookdepository {bookdep}"
        );
    }

    #[test]
    fn noise_is_injected_at_configured_rate() {
        let (mut world, sheriff) = small_world();
        let mut cfg = small_config();
        cfg.checks = 400;
        cfg.customization_noise = 0.2;
        cfg.mis_highlight_noise = 0.1;
        let crowd = Crowd::new(Seed::new(3), cfg, &mut world);
        let store = crowd.run_campaign(&world, &sheriff);
        let custom = store
            .records()
            .iter()
            .filter(|m| m.noise_truth == NoiseTruth::Customization)
            .count();
        let mis = store
            .records()
            .iter()
            .filter(|m| m.noise_truth == NoiseTruth::MisHighlight)
            .count();
        assert!((40..=120).contains(&custom), "customization {custom}");
        assert!((15..=70).contains(&mis), "mis-highlight {mis}");
    }

    #[test]
    fn customization_noise_shifts_user_price_only() {
        let (mut world, sheriff) = small_world();
        let mut cfg = small_config();
        cfg.checks = 200;
        cfg.customization_noise = 0.5;
        cfg.mis_highlight_noise = 0.0;
        let crowd = Crowd::new(Seed::new(9), cfg, &mut world);
        let store = crowd.run_campaign(&world, &sheriff);
        let noisy: Vec<_> = store
            .records()
            .iter()
            .filter(|m| m.noise_truth == NoiseTruth::Customization)
            .collect();
        assert!(!noisy.is_empty());
        for m in noisy {
            // The user's price is 15% above what their own-country VP
            // would see — verifiable whenever a same-country VP exists
            // and extraction succeeded.
            let user_price = m.user_price.expect("user extracted");
            assert!(user_price.amount.is_positive());
        }
    }
}
