//! The check frame: measurements reduced to analysis-ready rows.
//!
//! One [`CheckRow`] per synchronized check: per-vantage USD values
//! (mid-rate conversion, reporting only), the exchange-band verdict
//! (decision-grade), and the nominal max/min ratio. Everything downstream
//! — all ten figures — reads this frame.

use pd_currency::{band_filter, FxSeries};
use pd_sheriff::{Measurement, MeasurementStore};
use pd_util::{intern, RequestId, VantageId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One synchronized check, analysis-ready.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckRow {
    /// The source measurement's dense request id — its position in the
    /// producing [`MeasurementStore`]. Per-domain shards built with
    /// [`CheckFrame::build_domain`] keep it, so
    /// [`CheckFrame::merge_shards`] can splice shards back into exact
    /// store order.
    pub request: RequestId,
    /// Retailer domain (interned: clones are refcount bumps).
    pub domain: Arc<str>,
    /// Product slug (interned: clones are refcount bumps).
    pub slug: Arc<str>,
    /// Simulation day of the check.
    pub day: usize,
    /// Per-vantage USD values (mid-rate), only successful extractions.
    pub usd: Vec<(VantageId, f64)>,
    /// True iff the variation survives the exchange-band filter.
    pub genuine: bool,
    /// Nominal max/min USD ratio (1.0 when not genuine or degenerate).
    pub ratio: f64,
    /// Minimum USD value across vantage points.
    pub min_usd: f64,
}

impl CheckRow {
    /// Builds a row from a measurement.
    #[must_use]
    pub fn from_measurement(m: &Measurement, fx: &FxSeries) -> Option<CheckRow> {
        let day = m.day().min(fx.days().saturating_sub(1));
        let usd: Vec<(VantageId, f64)> = m
            .observations
            .iter()
            .filter_map(|o| o.price.map(|p| (o.vantage, fx.to_usd_mid(p, day))))
            .collect();
        if usd.len() < 2 {
            return None;
        }
        let prices = m.prices();
        let verdict = band_filter(fx, &prices, day)?;
        let min_usd = usd.iter().map(|(_, v)| *v).fold(f64::MAX, f64::min);
        Some(CheckRow {
            request: m.request,
            domain: intern(&m.domain),
            slug: intern(&m.product_slug),
            day,
            usd,
            genuine: verdict.genuine,
            ratio: if verdict.genuine {
                verdict.nominal_ratio
            } else {
                1.0
            },
            min_usd,
        })
    }

    /// USD value at one vantage point, if extracted.
    #[must_use]
    pub fn usd_at(&self, vantage: VantageId) -> Option<f64> {
        self.usd
            .iter()
            .find(|(v, _)| *v == vantage)
            .map(|(_, value)| *value)
    }
}

/// An interned `(domain, slug)` pair — the grouping key of
/// [`CheckFrame::by_product`]. Clones are refcount bumps.
pub type ProductKey = (Arc<str>, Arc<str>);

/// A collection of check rows with domain/product indexing.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CheckFrame {
    rows: Vec<CheckRow>,
}

impl CheckFrame {
    /// Builds the frame from a measurement store. Rows that cannot be
    /// analyzed (fewer than two successful extractions) are skipped, as
    /// the paper's cleaning discards them.
    #[must_use]
    pub fn build(store: &MeasurementStore, fx: &FxSeries) -> Self {
        CheckFrame {
            rows: store
                .records()
                .iter()
                .filter_map(|m| CheckRow::from_measurement(m, fx))
                .collect(),
        }
    }

    /// Builds a frame restricted to a single retailer's checks. Useful
    /// for per-retailer analysis fan-out: building one frame per crawled
    /// domain (in any order, or concurrently) and analyzing each shard
    /// yields the same per-domain results as filtering the full frame.
    /// Rows keep their source [`CheckRow::request`] position, so
    /// [`CheckFrame::merge_shards`] can reassemble the shards into the
    /// exact frame [`CheckFrame::build`] would produce.
    #[must_use]
    pub fn build_domain(store: &MeasurementStore, fx: &FxSeries, domain: &str) -> Self {
        CheckFrame {
            rows: store
                .by_domain(domain)
                .filter_map(|m| CheckRow::from_measurement(m, fx))
                .collect(),
        }
    }

    /// Builds a frame from pre-built rows, trusting the caller's
    /// filtering (advanced: for callers that partition a store
    /// themselves, like the engine's frame memo, where re-scanning the
    /// store per domain would be quadratic).
    #[must_use]
    pub fn from_rows(rows: Vec<CheckRow>) -> Self {
        CheckFrame { rows }
    }

    /// Splices per-domain shards (any order) back into store order: the
    /// result is row-for-row equal to [`CheckFrame::build`] on the full
    /// store the shards were cut from. This is what lets the engine
    /// build (and cache) frames one retailer at a time — in parallel —
    /// without perturbing a single figure.
    #[must_use]
    pub fn merge_shards<'a>(shards: impl IntoIterator<Item = &'a CheckFrame>) -> Self {
        let mut rows: Vec<CheckRow> = shards
            .into_iter()
            .flat_map(|shard| shard.rows.iter().cloned())
            .collect();
        // Request ids are dense store positions, so this sort is exactly
        // "original store order" (keys are unique; unstable is safe).
        rows.sort_unstable_by_key(|r| r.request.index());
        CheckFrame { rows }
    }

    /// All rows.
    #[must_use]
    pub fn rows(&self) -> &[CheckRow] {
        &self.rows
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Distinct domains in first-seen order (cheap `Arc` clones).
    #[must_use]
    pub fn domains(&self) -> Vec<Arc<str>> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for r in &self.rows {
            if seen.insert(&*r.domain) {
                out.push(Arc::clone(&r.domain));
            }
        }
        out
    }

    /// Rows of one domain.
    pub fn by_domain<'a>(&'a self, domain: &'a str) -> impl Iterator<Item = &'a CheckRow> {
        self.rows.iter().filter(move |r| &*r.domain == domain)
    }

    /// Rows grouped per product `(domain, slug)`, preserving first-seen
    /// product order.
    #[must_use]
    pub fn by_product(&self) -> Vec<(ProductKey, Vec<&CheckRow>)> {
        let mut order: Vec<ProductKey> = Vec::new();
        let mut map: std::collections::HashMap<ProductKey, Vec<&CheckRow>> =
            std::collections::HashMap::new();
        for r in &self.rows {
            let key = (Arc::clone(&r.domain), Arc::clone(&r.slug));
            if !map.contains_key(&key) {
                order.push(key.clone());
            }
            map.entry(key).or_default().push(r);
        }
        order
            .into_iter()
            .map(|k| {
                let v = map.remove(&k).expect("key inserted above");
                (k, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_currency::{Currency, Price};
    use pd_net::clock::SimTime;
    use pd_sheriff::measurement::NoiseTruth;
    use pd_sheriff::PriceObservation;
    use pd_util::{Money, RequestId, Seed, UserId};

    fn fx() -> FxSeries {
        FxSeries::generate(Seed::new(1307), 160)
    }

    fn meas(domain: &str, slug: &str, prices_minor: &[Option<i64>]) -> Measurement {
        Measurement {
            request: RequestId::new(0),
            user: UserId::new(0),
            domain: domain.into(),
            product_slug: slug.into(),
            time: SimTime::from_millis(2 * 24 * 3_600_000),
            user_price: None,
            observations: prices_minor
                .iter()
                .enumerate()
                .map(|(i, p)| match p {
                    Some(minor) => PriceObservation::ok(
                        VantageId::new(i as u32),
                        Price::new(Money::from_minor(*minor), Currency::Usd),
                        String::new(),
                    ),
                    None => PriceObservation::failed(VantageId::new(i as u32), "x".into()),
                })
                .collect(),
            noise_truth: NoiseTruth::Clean,
        }
    }

    #[test]
    fn row_computes_ratio_and_verdict() {
        let m = meas("a.example", "p", &[Some(10_000), Some(13_000)]);
        let row = CheckRow::from_measurement(&m, &fx()).unwrap();
        assert!(row.genuine);
        assert!((row.ratio - 1.3).abs() < 1e-9);
        assert!((row.min_usd - 100.0).abs() < 1e-9);
        assert_eq!(row.day, 2);
        assert_eq!(row.usd_at(VantageId::new(0)), Some(100.0));
        assert_eq!(row.usd_at(VantageId::new(9)), None);
    }

    #[test]
    fn flat_prices_ratio_one() {
        let m = meas("a.example", "p", &[Some(5_000), Some(5_000), Some(5_000)]);
        let row = CheckRow::from_measurement(&m, &fx()).unwrap();
        assert!(!row.genuine);
        assert_eq!(row.ratio, 1.0);
    }

    #[test]
    fn too_few_extractions_skipped() {
        let m = meas("a.example", "p", &[Some(5_000), None, None]);
        assert!(CheckRow::from_measurement(&m, &fx()).is_none());
    }

    #[test]
    fn frame_grouping() {
        let mut store = MeasurementStore::new();
        store.push(meas("a.example", "p1", &[Some(100), Some(130)]));
        store.push(meas("a.example", "p1", &[Some(100), Some(120)]));
        store.push(meas("a.example", "p2", &[Some(100), Some(100)]));
        store.push(meas("b.example", "q", &[Some(200), Some(300)]));
        let frame = CheckFrame::build(&store, &fx());
        assert_eq!(frame.len(), 4);
        assert_eq!(
            frame
                .domains()
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>(),
            vec!["a.example", "b.example"]
        );
        assert_eq!(frame.by_domain("a.example").count(), 3);
        let products = frame.by_product();
        assert_eq!(products.len(), 3);
        assert_eq!(products[0].0, ("a.example".into(), "p1".into()));
        assert_eq!(products[0].1.len(), 2);
    }

    #[test]
    fn domain_frame_matches_filtered_full_frame() {
        let mut store = MeasurementStore::new();
        store.push(meas("a.example", "p1", &[Some(100), Some(130)]));
        store.push(meas("b.example", "q", &[Some(200), Some(300)]));
        store.push(meas("a.example", "p2", &[Some(100), Some(100)]));
        let full = CheckFrame::build(&store, &fx());
        let shard = CheckFrame::build_domain(&store, &fx(), "a.example");
        let filtered: Vec<&CheckRow> = full.by_domain("a.example").collect();
        assert_eq!(shard.len(), filtered.len());
        for (a, b) in shard.rows().iter().zip(filtered) {
            assert_eq!(a, b);
        }
        assert!(CheckFrame::build_domain(&store, &fx(), "gone.example").is_empty());
    }

    #[test]
    fn merged_shards_equal_full_build() {
        let mut store = MeasurementStore::new();
        // Interleaved domains, so splicing genuinely has to reorder.
        store.push(meas("a.example", "p1", &[Some(100), Some(130)]));
        store.push(meas("b.example", "q", &[Some(200), Some(300)]));
        store.push(meas("a.example", "p2", &[Some(100), None, None])); // skipped row
        store.push(meas("c.example", "r", &[Some(50), Some(55)]));
        store.push(meas("b.example", "q", &[Some(210), Some(290)]));
        let full = CheckFrame::build(&store, &fx());
        let shards: Vec<CheckFrame> = store
            .domains()
            .iter()
            // Reversed build order: merge_shards must not care.
            .rev()
            .map(|d| CheckFrame::build_domain(&store, &fx(), d))
            .collect();
        let merged = CheckFrame::merge_shards(&shards);
        assert_eq!(merged.rows(), full.rows());
    }
}
