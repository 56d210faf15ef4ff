//! Sec. 3.2 dataset summary statistics (the reproduction's "T0").

use pd_sheriff::{Crowd, Measurement, MeasurementStore};
use pd_util::UserId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The headline numbers of Sec. 3.2.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Crowd price-check requests (paper: 1 500).
    pub crowd_requests: usize,
    /// Distinct crowd users (paper: 340).
    pub crowd_users: usize,
    /// Distinct user countries (paper: 18).
    pub crowd_countries: usize,
    /// Distinct domains checked by the crowd (paper: 600).
    pub crowd_domains: usize,
    /// Retailers in the crawled dataset (paper: 21).
    pub crawled_retailers: usize,
    /// Total products crawled.
    pub crawled_products: usize,
    /// Crawl days per retailer (paper: 7).
    pub crawl_days: usize,
    /// Extracted prices in the crawled dataset (paper: 188 K).
    pub crawled_prices: usize,
}

/// The crawl half of the Sec. 3.2 summary over one or more whole
/// domains: built per domain from that domain's rows
/// ([`CrawlTally::of_domain`]) and merged across domains
/// ([`CrawlTally::merge`]). Every figure is a count, a sum or a set
/// union, so the merge is order-free — the engine's memo keeps the
/// merged tally beside each assembled frame and the summary needs no
/// second pass over the crawl.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrawlTally {
    retailers: usize,
    products: usize,
    days: BTreeSet<usize>,
    prices: usize,
}

impl CrawlTally {
    /// The tally of one domain's rows (every row must carry the same
    /// domain). An empty domain counts as no retailer.
    #[must_use]
    pub fn of_domain<'a>(rows: impl IntoIterator<Item = &'a Measurement>) -> Self {
        let mut slugs: HashSet<&str> = HashSet::new();
        let mut tally = CrawlTally::default();
        for m in rows {
            slugs.insert(&m.product_slug);
            tally.days.insert(m.day());
            tally.prices += m.observations.iter().filter(|o| o.price.is_some()).count();
        }
        tally.retailers = usize::from(!slugs.is_empty());
        tally.products = slugs.len();
        tally
    }

    /// Adds another tally over domains disjoint from this one's.
    pub fn merge(&mut self, other: &CrawlTally) {
        self.retailers += other.retailers;
        self.products += other.products;
        self.days.extend(&other.days);
        self.prices += other.prices;
    }
}

/// Streaming accumulator behind [`dataset_summary`]: feed it crowd
/// measurements one at a time — in any order, e.g. chunk by chunk from
/// an on-disk store — and the crawl as merged [`CrawlTally`]s, and
/// [`SummaryScan::finish`] yields the same numbers as a whole-store
/// scan. Every statistic is a count, a set cardinality or a sum, so the
/// scan never has to hold the stores.
#[derive(Debug, Default)]
pub struct SummaryScan {
    crowd_requests: usize,
    crowd_users: HashSet<UserId>,
    crowd_domains: HashSet<String>,
    crawl: CrawlTally,
}

impl SummaryScan {
    /// An empty scan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounts one measurement from the **raw crowd** store.
    pub fn crowd_row(&mut self, m: &Measurement) {
        self.crowd_requests += 1;
        self.crowd_users.insert(m.user);
        if !self.crowd_domains.contains(m.domain.as_str()) {
            self.crowd_domains.insert(m.domain.clone());
        }
    }

    /// Accounts the **crawl** store's tally over domains not fed yet.
    pub fn crawl(&mut self, tally: &CrawlTally) {
        self.crawl.merge(tally);
    }

    /// The Sec. 3.2 headline numbers for everything fed so far, with the
    /// crowd population's distinct country count.
    #[must_use]
    pub fn finish(self, crowd_countries: usize) -> DatasetSummary {
        DatasetSummary {
            crowd_requests: self.crowd_requests,
            crowd_users: self.crowd_users.len(),
            crowd_countries,
            crowd_domains: self.crowd_domains.len(),
            crawled_retailers: self.crawl.retailers,
            crawled_products: self.crawl.products,
            crawl_days: self.crawl.days.len(),
            crawled_prices: self.crawl.prices,
        }
    }
}

/// Builds the summary from the two stores and the crowd.
#[must_use]
pub fn dataset_summary(
    crowd: &Crowd,
    crowd_store: &MeasurementStore,
    crawl_store: &MeasurementStore,
) -> DatasetSummary {
    let mut scan = SummaryScan::new();
    for m in crowd_store.records() {
        scan.crowd_row(m);
    }
    let mut by_domain: HashMap<&str, Vec<&Measurement>> = HashMap::new();
    for m in crawl_store.records() {
        by_domain.entry(&m.domain).or_default().push(m);
    }
    for rows in by_domain.into_values() {
        scan.crawl(&CrawlTally::of_domain(rows));
    }
    scan.finish(crowd.country_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_currency::{Currency, Price};
    use pd_net::clock::SimTime;
    use pd_sheriff::measurement::{Measurement, NoiseTruth};
    use pd_sheriff::{CrowdConfig, PriceObservation};
    use pd_util::{Money, RequestId, Seed, UserId, VantageId};

    fn meas(domain: &str, slug: &str, user: u32, day: u64, n_prices: usize) -> Measurement {
        Measurement {
            request: RequestId::new(0),
            user: UserId::new(user),
            domain: domain.into(),
            product_slug: slug.into(),
            time: SimTime::from_millis(day * 24 * 3_600_000),
            user_price: None,
            observations: (0..n_prices)
                .map(|i| {
                    PriceObservation::ok(
                        VantageId::new(i as u32),
                        Price::new(Money::from_minor(100), Currency::Usd),
                        String::new(),
                    )
                })
                .collect(),
            noise_truth: NoiseTruth::Clean,
        }
    }

    #[test]
    fn summary_counts() {
        let seed = Seed::new(1307);
        let mut world = pd_web::WebWorld::build(seed, pd_pricing::paper_retailers(seed), 160);
        let crowd = pd_sheriff::Crowd::new(
            seed,
            CrowdConfig {
                users: 10,
                checks: 0,
                ..CrowdConfig::default()
            },
            &mut world,
        );
        let mut crowd_store = MeasurementStore::new();
        crowd_store.push(meas("a.example", "x", 1, 3, 14));
        crowd_store.push(meas("b.example", "y", 2, 4, 14));
        crowd_store.push(meas("a.example", "z", 1, 5, 14));
        let mut crawl_store = MeasurementStore::new();
        crawl_store.push(meas("a.example", "x", u32::MAX, 120, 14));
        crawl_store.push(meas("a.example", "x", u32::MAX, 121, 14));
        crawl_store.push(meas("a.example", "w", u32::MAX, 120, 13));

        let s = dataset_summary(&crowd, &crowd_store, &crawl_store);
        assert_eq!(s.crowd_requests, 3);
        assert_eq!(s.crowd_users, 2);
        assert_eq!(s.crowd_domains, 2);
        assert_eq!(s.crawled_retailers, 1);
        assert_eq!(s.crawled_products, 2);
        assert_eq!(s.crawl_days, 2);
        assert_eq!(s.crawled_prices, 14 + 14 + 13);

        // Feeding the same rows through the streaming scan — per-domain
        // crawl tallies in reverse, crowd rows reversed — lands on
        // identical numbers: the chunked store path depends on this
        // order independence.
        let mut scan = SummaryScan::new();
        for domain in crawl_store.domains().iter().rev() {
            let rows = crawl_store.records().iter().filter(|m| m.domain == *domain);
            scan.crawl(&CrawlTally::of_domain(rows));
        }
        scan.crawl(&CrawlTally::of_domain([]));
        for m in crowd_store.records().iter().rev() {
            scan.crowd_row(m);
        }
        assert_eq!(scan.finish(crowd.country_count()), s);
    }
}
