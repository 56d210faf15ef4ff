//! The crawl driver.
//!
//! For every target retailer: sample up to `products_per_retailer`
//! products, then for each of `days` consecutive days run one
//! synchronized 14-point check per product. Checks within a retailer are
//! spaced by a politeness gap, and each day's sweep starts at a fixed
//! hour — the same every day, so day-over-day comparisons are apples to
//! apples.
//!
//! The per-retailer highlight is captured once from a reference render
//! and reused for every product — valid because a retailer's template is
//! shared across its product pages, which is exactly the economy of scale
//! the paper gets from $heriff's crowd highlights.

use pd_extract::HighlightExtractor;
use pd_net::clock::{SimDuration, SimTime};
use pd_sheriff::measurement::{Measurement, NoiseTruth, PriceObservation};
use pd_sheriff::{CopyTally, MeasurementStore, PageReader, Sheriff};
use pd_util::{ProductId, RequestId, Seed, UserId};
use pd_web::template::price_selector;
use pd_web::{Request, WebWorld};
use serde::{Deserialize, Serialize};

/// The synthetic "user" id crawler probes are recorded under.
pub const CRAWLER_USER: UserId = UserId(u32::MAX);

/// Crawl parameters. Paper defaults: ≤100 products, 7 days.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrawlConfig {
    /// Maximum products sampled per retailer.
    pub products_per_retailer: usize,
    /// Number of consecutive crawl days.
    pub days: u64,
    /// First crawl day (simulation day index; the paper's crawl ran
    /// after the crowd window).
    pub start_day: u64,
    /// Hour-of-day each daily sweep starts, in ms.
    pub sweep_start_ms: u64,
    /// Politeness gap between two checks on the same retailer.
    pub politeness: SimDuration,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            products_per_retailer: 100,
            days: 7,
            start_day: 120,
            sweep_start_ms: 6 * 3_600_000, // 06:00 UTC
            politeness: SimDuration::from_secs(2),
        }
    }
}

/// Per-retailer crawl bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetailerCrawlStats {
    /// Domain crawled.
    pub domain: String,
    /// Products sampled.
    pub products: usize,
    /// Checks issued (products × days).
    pub checks: usize,
    /// Checks where every vantage point extracted a price.
    pub complete_checks: usize,
    /// Retries performed (failed fetch replays).
    pub retries: usize,
}

/// The systematic crawler.
#[derive(Debug)]
pub struct Crawler {
    config: CrawlConfig,
    seed: Seed,
}

impl Crawler {
    /// Creates a crawler.
    #[must_use]
    pub fn new(seed: Seed, config: CrawlConfig) -> Self {
        Crawler {
            config,
            seed: seed.derive("crawler"),
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &CrawlConfig {
        &self.config
    }

    /// Crawls the given target domains. Unknown domains are skipped (and
    /// reported with zero products in the stats). Equivalent to crawling
    /// every target with [`Crawler::crawl_one`] and merging the per-shard
    /// stores in target order.
    #[must_use]
    pub fn crawl(
        &self,
        world: &WebWorld,
        sheriff: &Sheriff,
        targets: &[String],
    ) -> (MeasurementStore, Vec<RetailerCrawlStats>) {
        let mut store = MeasurementStore::new();
        let mut stats = Vec::with_capacity(targets.len());
        for domain in targets {
            let (shard, s) = self.crawl_one(world, sheriff, domain);
            store.extend(shard);
            stats.push(s);
        }
        (store, stats)
    }

    /// Parallel-safe entry point: crawls a single retailer into its own
    /// store shard. The per-retailer RNG is derived from the domain name
    /// (not from crawl order), so shards are independent of scheduling
    /// and can be produced concurrently, then merged in target order.
    #[must_use]
    pub fn crawl_one(
        &self,
        world: &WebWorld,
        sheriff: &Sheriff,
        domain: &str,
    ) -> (MeasurementStore, RetailerCrawlStats) {
        let (store, stats, _) = self.crawl_one_tallied(world, sheriff, domain);
        (store, stats)
    }

    /// [`crawl_one`](Crawler::crawl_one), with the copies its checks
    /// fetched, extracted and parsed by resuming
    /// ([`PageReader::tally`]).
    #[must_use]
    pub fn crawl_one_tallied(
        &self,
        world: &WebWorld,
        sheriff: &Sheriff,
        domain: &str,
    ) -> (MeasurementStore, RetailerCrawlStats, CopyTally) {
        let mut store = MeasurementStore::new();
        let mut tally = CopyTally::default();
        let stats = self.crawl_retailer(world, sheriff, domain, &mut store, &mut tally);
        (store, stats, tally)
    }

    fn crawl_retailer(
        &self,
        world: &WebWorld,
        sheriff: &Sheriff,
        domain: &str,
        store: &mut MeasurementStore,
        tally: &mut CopyTally,
    ) -> RetailerCrawlStats {
        let mut stats = RetailerCrawlStats {
            domain: domain.to_owned(),
            products: 0,
            checks: 0,
            complete_checks: 0,
            retries: 0,
        };
        let Some(server) = world.server_by_domain(domain) else {
            return stats;
        };
        let catalog = server.catalog();
        let sample = catalog.sample(self.seed.derive(domain), self.config.products_per_retailer);
        stats.products = sample.len();

        // Reference highlight: captured once per retailer (stands in for
        // the crowd-provided highlight the paper reused).
        let Some(extractor) = self.reference_highlight(world, sheriff, domain, server, &sample)
        else {
            return stats;
        };

        for day in 0..self.config.days {
            let day_start = SimTime::from_millis(
                (self.config.start_day + day) * 24 * 3_600_000 + self.config.sweep_start_ms,
            );
            let mut t = day_start;
            for &pid in &sample {
                let product = catalog.product(pid);
                let path = format!("/product/{}", product.slug);
                let mut observations = check(sheriff, world, domain, &path, &extractor, t, tally);
                // Retry any failed observation once — transient failures
                // are the normal case on the real web; here the path is
                // exercised by unknown-host tests.
                if observations.iter().any(|o| o.price.is_none()) {
                    stats.retries += 1;
                    let retry_t = t + SimDuration::from_secs(30);
                    let retried = check(sheriff, world, domain, &path, &extractor, retry_t, tally);
                    for (slot, new) in observations.iter_mut().zip(retried) {
                        if slot.price.is_none() && new.price.is_some() {
                            *slot = new;
                        }
                    }
                }
                stats.checks += 1;
                if observations.iter().all(|o| o.price.is_some()) {
                    stats.complete_checks += 1;
                }
                store.push(Measurement {
                    request: RequestId::new(0), // assigned by store
                    user: CRAWLER_USER,
                    domain: domain.to_owned(),
                    product_slug: product.slug.clone(),
                    time: t,
                    user_price: None,
                    observations,
                    noise_truth: NoiseTruth::Clean,
                });
                t += self.config.politeness;
            }
        }
        stats
    }

    /// Renders one sampled product from the first vantage point and
    /// captures the retailer's highlight.
    fn reference_highlight(
        &self,
        world: &WebWorld,
        sheriff: &Sheriff,
        domain: &str,
        server: &pd_web::RetailerServer,
        sample: &[ProductId],
    ) -> Option<HighlightExtractor> {
        let first = sample.first()?;
        let product = server.catalog().product(*first);
        let vp = sheriff.vantage_points().first()?;
        let req = Request::get(
            domain,
            &format!("/product/{}", product.slug),
            vp.addr,
            SimTime::from_millis(self.config.start_day * 24 * 3_600_000),
        );
        let resp = world.fetch(&req);
        if resp.status.code() != 200 {
            return None;
        }
        let doc = pd_html::parse_pooled(&resp.body);
        HighlightExtractor::from_highlight(&doc, &price_selector(server.spec().template_style))
    }
}

/// One synchronized check of `domain`'s `path` at `time`, in a scope of
/// its own, adding its copies, extractions and resumed parses to
/// `tally`.
fn check(
    sheriff: &Sheriff,
    world: &WebWorld,
    domain: &str,
    path: &str,
    extractor: &HighlightExtractor,
    time: SimTime,
    tally: &mut CopyTally,
) -> Vec<PriceObservation> {
    let mut reader = PageReader::new();
    let observations = sheriff.check_with(world, domain, path, extractor, time, &[], &mut reader);
    *tally += reader.tally();
    observations
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_net::ip::IpAllocator;
    use pd_net::latency::LatencyModel;
    use pd_net::vantage::paper_vantage_points;
    use pd_pricing::paper_retailers;

    fn rig() -> (WebWorld, Sheriff) {
        let seed = Seed::new(1307);
        let mut world = WebWorld::build(seed, paper_retailers(seed), 160);
        let mut alloc = IpAllocator::new();
        let vps: Vec<_> = paper_vantage_points(&mut alloc)
            .into_iter()
            .map(|mut vp| {
                vp.addr = world.allocate_client(&vp.location);
                vp
            })
            .collect();
        (world, Sheriff::new(vps, LatencyModel::new(seed)))
    }

    fn small_config() -> CrawlConfig {
        CrawlConfig {
            products_per_retailer: 5,
            days: 2,
            start_day: 100,
            ..CrawlConfig::default()
        }
    }

    #[test]
    fn crawl_produces_products_times_days_checks() {
        let (world, sheriff) = rig();
        let crawler = Crawler::new(Seed::new(1), small_config());
        let (store, stats) = crawler.crawl(
            &world,
            &sheriff,
            &["www.digitalrev.com".to_owned(), "www.energie.it".to_owned()],
        );
        assert_eq!(store.len(), 2 * 5 * 2);
        assert_eq!(stats.len(), 2);
        for s in &stats {
            assert_eq!(s.products, 5);
            assert_eq!(s.checks, 10);
            assert_eq!(s.complete_checks, 10, "{}", s.domain);
            assert_eq!(s.retries, 0);
        }
    }

    #[test]
    fn crawl_covers_every_vantage_point() {
        let (world, sheriff) = rig();
        let crawler = Crawler::new(Seed::new(1), small_config());
        let (store, _) = crawler.crawl(&world, &sheriff, &["www.digitalrev.com".to_owned()]);
        for m in store.records() {
            assert_eq!(m.observations.len(), 14);
            assert_eq!(m.user, CRAWLER_USER);
        }
    }

    #[test]
    fn unknown_domain_reports_zero_products() {
        let (world, sheriff) = rig();
        let crawler = Crawler::new(Seed::new(1), small_config());
        let (store, stats) = crawler.crawl(&world, &sheriff, &["gone.example".to_owned()]);
        assert_eq!(store.len(), 0);
        assert_eq!(stats[0].products, 0);
        assert_eq!(stats[0].checks, 0);
    }

    #[test]
    fn sampling_caps_at_catalog_size() {
        let (world, sheriff) = rig();
        let mut cfg = small_config();
        cfg.products_per_retailer = 10_000;
        let crawler = Crawler::new(Seed::new(1), cfg);
        let (_, stats) = crawler.crawl(&world, &sheriff, &["www.mauijim.com".to_owned()]);
        let size = world
            .server_by_domain("www.mauijim.com")
            .unwrap()
            .catalog()
            .len();
        assert_eq!(stats[0].products, size);
    }

    #[test]
    fn daily_sweeps_land_on_consecutive_days() {
        let (world, sheriff) = rig();
        let crawler = Crawler::new(Seed::new(1), small_config());
        let (store, _) = crawler.crawl(&world, &sheriff, &["www.digitalrev.com".to_owned()]);
        let days: std::collections::BTreeSet<u64> =
            store.records().iter().map(|m| m.time.day_index()).collect();
        assert_eq!(days, [100u64, 101].into_iter().collect());
    }

    #[test]
    fn crawl_recovers_from_injected_transient_failures() {
        let (mut world, sheriff) = rig();
        world.set_failure_rate(0.05);
        let crawler = Crawler::new(Seed::new(1), small_config());
        let (store, stats) = crawler.crawl(&world, &sheriff, &["www.digitalrev.com".to_owned()]);
        assert!(stats[0].retries > 0, "5% failure rate must trigger retries");
        // After one retry round the overwhelming majority of checks are
        // complete again (P(fail twice) ≈ 0.25%/observation).
        let complete_frac = stats[0].complete_checks as f64 / stats[0].checks as f64;
        assert!(complete_frac >= 0.8, "complete {complete_frac}");
        // Every stored measurement still has 14 observation slots.
        assert!(store.records().iter().all(|m| m.observations.len() == 14));
    }

    #[test]
    fn crawl_is_deterministic() {
        let (world, sheriff) = rig();
        let a = Crawler::new(Seed::new(3), small_config()).crawl(
            &world,
            &sheriff,
            &["www.killah.com".to_owned(), "www.digitalrev.com".to_owned()],
        );
        let b = Crawler::new(Seed::new(3), small_config()).crawl(
            &world,
            &sheriff,
            &["www.killah.com".to_owned(), "www.digitalrev.com".to_owned()],
        );
        assert_eq!(a.0.len(), b.0.len());
        for (x, y) in a.0.records().iter().zip(b.0.records()) {
            assert_eq!(x.prices(), y.prices());
        }
    }

    #[test]
    fn shard_merge_matches_sequential_crawl() {
        let (world, sheriff) = rig();
        let crawler = Crawler::new(Seed::new(3), small_config());
        let targets = ["www.killah.com", "www.digitalrev.com", "www.energie.it"];
        let owned: Vec<String> = targets.iter().map(|t| (*t).to_owned()).collect();
        let (seq_store, seq_stats) = crawler.crawl(&world, &sheriff, &owned);
        // Crawl shards out of order, merge in target order.
        let mut shards: Vec<(MeasurementStore, RetailerCrawlStats)> = targets
            .iter()
            .rev()
            .map(|t| crawler.crawl_one(&world, &sheriff, t))
            .collect();
        shards.reverse();
        let mut store = MeasurementStore::new();
        let mut stats = Vec::new();
        for (shard, s) in shards {
            store.extend(shard);
            stats.push(s);
        }
        assert_eq!(stats, seq_stats);
        assert_eq!(store.len(), seq_store.len());
        for (a, b) in store.records().iter().zip(seq_store.records()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn multiplicative_retailer_yields_full_extent() {
        // digitalrev discriminates every product: every check must show
        // a confirmed variation (Fig. 3's 100 % extent).
        let (world, sheriff) = rig();
        let crawler = Crawler::new(Seed::new(1), small_config());
        let (store, _) = crawler.crawl(&world, &sheriff, &["www.digitalrev.com".to_owned()]);
        let fx = world.fx();
        for m in store.records() {
            let day = m.day().min(fx.days() - 1);
            let verdict = pd_currency::band_filter(fx, &m.prices(), day).unwrap();
            assert!(verdict.genuine, "check on {} not confirmed", m.product_slug);
        }
    }
}
