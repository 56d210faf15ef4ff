//! Measurement records and the measurement store.
//!
//! One [`Measurement`] corresponds to one $heriff button click: the URI,
//! who clicked, when, what the user's own page showed, and what every
//! vantage point extracted. The store is the "database" of Sec. 3.1 step
//! (vi); the crawled dataset reuses the same record shape with a synthetic
//! user.

use pd_currency::Price;
use pd_net::clock::SimTime;
use pd_util::{RequestId, UserId, VantageId};
use serde::{Deserialize, Serialize};

/// What one vantage point saw for one check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriceObservation {
    /// Which vantage point.
    pub vantage: VantageId,
    /// The extracted price, if extraction succeeded.
    pub price: Option<Price>,
    /// Extraction failure description (kept verbatim for debugging, as
    /// $heriff kept full pages).
    pub error: Option<String>,
    /// Raw text of the resolved node, when available.
    pub raw_text: Option<String>,
}

impl PriceObservation {
    /// A successful observation.
    #[must_use]
    pub fn ok(vantage: VantageId, price: Price, raw_text: String) -> Self {
        PriceObservation {
            vantage,
            price: Some(price),
            error: None,
            raw_text: Some(raw_text),
        }
    }

    /// A failed observation.
    #[must_use]
    pub fn failed(vantage: VantageId, error: String) -> Self {
        PriceObservation {
            vantage,
            price: None,
            error: Some(error),
            raw_text: None,
        }
    }
}

/// Ground-truth noise label attached by the *simulator* (never visible to
/// the cleaning algorithm — used to evaluate it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NoiseTruth {
    /// Clean check.
    Clean,
    /// The user bought a customized variant; the URI encodes the base
    /// product (Sec. 3.2's "product customization not encoded on the
    /// URI").
    Customization,
    /// The user highlighted the wrong element (promo banner).
    MisHighlight,
}

/// One $heriff check (or one crawler probe).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Dense request id.
    pub request: RequestId,
    /// Requesting user (crawler probes use a reserved synthetic user).
    pub user: UserId,
    /// Retailer domain.
    pub domain: String,
    /// Product slug (the URI path is `/product/<slug>`).
    pub product_slug: String,
    /// Synchronized check time.
    pub time: SimTime,
    /// What the user's own browser showed (the highlighted price).
    pub user_price: Option<Price>,
    /// Per-vantage observations.
    pub observations: Vec<PriceObservation>,
    /// Ground-truth noise label (simulator-only).
    pub noise_truth: NoiseTruth,
}

impl Measurement {
    /// Day index of the check.
    #[must_use]
    pub fn day(&self) -> usize {
        self.time.day_index() as usize
    }

    /// The successfully extracted prices.
    #[must_use]
    pub fn prices(&self) -> Vec<Price> {
        self.observations.iter().filter_map(|o| o.price).collect()
    }

    /// Number of failed observations.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.observations
            .iter()
            .filter(|o| o.error.is_some())
            .count()
    }
}

/// Append-only store of measurements.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MeasurementStore {
    records: Vec<Measurement>,
}

impl MeasurementStore {
    /// Empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A store holding `records` as they are, request ids included —
    /// what deserializing a stored store gives (the artifact store uses
    /// it to reassemble rows decoded chunk by chunk).
    #[must_use]
    pub fn from_records(records: Vec<Measurement>) -> Self {
        MeasurementStore { records }
    }

    /// Appends a measurement, assigning its dense request id.
    pub fn push(&mut self, mut m: Measurement) -> RequestId {
        let id = RequestId::new(u32::try_from(self.records.len()).expect("store overflow"));
        m.request = id;
        self.records.push(m);
        id
    }

    /// Appends every measurement of `other`, reassigning dense request
    /// ids in this store's sequence. Merging per-shard stores in a fixed
    /// shard order therefore yields the same store as pushing the same
    /// measurements sequentially (the scheduler's merge contract).
    pub fn extend(&mut self, other: MeasurementStore) {
        for m in other.records {
            self.push(m);
        }
    }

    /// Keeps only the measurements `keep` accepts, re-assigning dense
    /// request ids (the store's invariant: a record's request id is its
    /// position). Returns how many records were dropped. This is the
    /// allocation-free way to filter a store in place — the cleaning
    /// pass uses it instead of cloning every surviving measurement into
    /// a fresh store.
    pub fn retain(&mut self, mut keep: impl FnMut(&Measurement) -> bool) -> usize {
        let before = self.records.len();
        self.records.retain(|m| keep(m));
        for (i, m) in self.records.iter_mut().enumerate() {
            m.request = RequestId::new(u32::try_from(i).expect("store overflow"));
        }
        before - self.records.len()
    }

    /// All measurements in insertion order.
    #[must_use]
    pub fn records(&self) -> &[Measurement] {
        &self.records
    }

    /// Number of measurements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Measurements for one domain.
    pub fn by_domain<'a>(&'a self, domain: &'a str) -> impl Iterator<Item = &'a Measurement> {
        self.records.iter().filter(move |m| m.domain == domain)
    }

    /// Distinct domains in the store, in first-seen order.
    #[must_use]
    pub fn domains(&self) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for m in &self.records {
            if seen.insert(m.domain.as_str()) {
                out.push(m.domain.clone());
            }
        }
        out
    }

    /// Total number of successfully extracted prices across all
    /// measurements (the paper's "188K extracted prices" statistic).
    #[must_use]
    pub fn total_extracted_prices(&self) -> usize {
        self.records.iter().map(|m| m.prices().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_currency::Currency;
    use pd_util::Money;

    fn obs(v: u32, minor: i64) -> PriceObservation {
        PriceObservation::ok(
            VantageId::new(v),
            Price::new(Money::from_minor(minor), Currency::Usd),
            format!("${minor}"),
        )
    }

    fn meas(domain: &str, slug: &str, observations: Vec<PriceObservation>) -> Measurement {
        Measurement {
            request: RequestId::new(0),
            user: UserId::new(1),
            domain: domain.into(),
            product_slug: slug.into(),
            time: SimTime::from_millis(5 * 24 * 3_600_000),
            user_price: None,
            observations,
            noise_truth: NoiseTruth::Clean,
        }
    }

    #[test]
    fn push_assigns_dense_ids() {
        let mut store = MeasurementStore::new();
        let a = store.push(meas("a.example", "x", vec![]));
        let b = store.push(meas("b.example", "y", vec![]));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.records()[1].request, b);
    }

    #[test]
    fn day_and_prices() {
        let m = meas("a.example", "x", vec![obs(0, 100), obs(1, 200)]);
        assert_eq!(m.day(), 5);
        assert_eq!(m.prices().len(), 2);
        assert_eq!(m.failures(), 0);
    }

    #[test]
    fn failures_counted() {
        let mut m = meas("a.example", "x", vec![obs(0, 100)]);
        m.observations
            .push(PriceObservation::failed(VantageId::new(1), "404".into()));
        assert_eq!(m.failures(), 1);
        assert_eq!(m.prices().len(), 1);
    }

    #[test]
    fn extend_reassigns_dense_ids() {
        let mut a = MeasurementStore::new();
        a.push(meas("a.example", "x", vec![]));
        let mut b = MeasurementStore::new();
        b.push(meas("b.example", "y", vec![]));
        b.push(meas("b.example", "z", vec![]));
        a.extend(b);
        assert_eq!(a.len(), 3);
        for (i, m) in a.records().iter().enumerate() {
            assert_eq!(m.request.index(), i);
        }
        assert_eq!(a.records()[2].product_slug, "z");
    }

    #[test]
    fn retain_reindexes_request_ids() {
        let mut store = MeasurementStore::new();
        store.push(meas("a.example", "x", vec![]));
        store.push(meas("b.example", "y", vec![]));
        store.push(meas("a.example", "z", vec![]));
        let dropped = store.retain(|m| m.domain == "a.example");
        assert_eq!(dropped, 1);
        assert_eq!(store.len(), 2);
        for (i, m) in store.records().iter().enumerate() {
            assert_eq!(m.request.index(), i, "ids must stay dense positions");
        }
        assert_eq!(store.records()[1].product_slug, "z");
    }

    #[test]
    fn domain_queries() {
        let mut store = MeasurementStore::new();
        store.push(meas("a.example", "x", vec![obs(0, 1)]));
        store.push(meas("b.example", "y", vec![obs(0, 1), obs(1, 2)]));
        store.push(meas("a.example", "z", vec![]));
        assert_eq!(store.by_domain("a.example").count(), 2);
        assert_eq!(store.domains(), vec!["a.example", "b.example"]);
        assert_eq!(store.total_extracted_prices(), 3);
    }
}
