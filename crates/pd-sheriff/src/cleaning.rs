//! Noise removal (Sec. 3.2).
//!
//! "Before the analyses, we removed the noise from the crowdsourced
//! dataset. Causes behind the noise include diverse number and date
//! formats across countries, product customization not encoded on the
//! URI, etc."
//!
//! The cleaning algorithm is *operational* — it never looks at the
//! simulator's ground-truth noise labels:
//!
//! 1. **Refetch consistency** — the URI is refetched as if from the
//!    user's own location at check time; if the user's highlighted price
//!    differs from that refetch beyond the exchange band, the measurement
//!    is customization-style noise and is dropped.
//! 2. **Extraction health** — measurements where a majority of vantage
//!    points failed to extract are dropped (broken pages, wrong
//!    highlights on volatile elements).
//!
//! Because the labels are retained, tests measure the cleaner's precision
//! and recall against ground truth — an evaluation the original paper
//! could not run.

use crate::measurement::{Measurement, MeasurementStore, NoiseTruth};
use pd_currency::{band_filter, FxSeries};
use serde::{Deserialize, Serialize};

/// Outcome summary of a cleaning pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CleaningReport {
    /// Measurements kept.
    pub kept: usize,
    /// Dropped by the refetch-consistency rule.
    pub dropped_inconsistent: usize,
    /// Dropped by the extraction-health rule.
    pub dropped_unhealthy: usize,
    /// Dropped because the variation is explained by inlined taxes
    /// (the paper's manual tax check, applied per domain by the
    /// pipeline after the per-measurement rules).
    pub dropped_tax_explained: usize,
    /// Of the dropped, how many were truly noisy (ground truth) — for
    /// precision accounting in tests.
    pub dropped_truly_noisy: usize,
    /// Of the kept, how many were truly noisy — the cleaner's misses.
    pub kept_truly_noisy: usize,
}

/// Rule 2, extraction health: did at least half the vantage points
/// extract a price?
fn is_healthy(m: &Measurement) -> bool {
    m.prices().len() * 2 >= m.observations.len()
}

/// Does [`clean`] refetch this measurement? Exactly when it passes rule
/// 2 and carries the user's own price for rule 1 to compare against.
/// A caller that computes refetches ahead of `clean` (in parallel, say)
/// computes them for these records, in store order.
#[must_use]
pub fn reaches_refetch(m: &Measurement) -> bool {
    m.user_price.is_some() && is_healthy(m)
}

/// Cleans a crowdsourced store. `user_refetch` must return the price the
/// user's own location would see for a measurement (the crowd driver
/// wires this to a real refetch through the web world); it is called
/// once per record that [`reaches_refetch`], in store order.
pub fn clean<F>(
    store: &MeasurementStore,
    fx: &FxSeries,
    mut user_refetch: F,
) -> (MeasurementStore, CleaningReport)
where
    F: FnMut(&Measurement) -> Option<pd_currency::Price>,
{
    let mut kept_store = MeasurementStore::new();
    let mut report = CleaningReport {
        kept: 0,
        dropped_inconsistent: 0,
        dropped_unhealthy: 0,
        dropped_tax_explained: 0,
        dropped_truly_noisy: 0,
        kept_truly_noisy: 0,
    };

    for m in store.records() {
        // Rule 2: extraction health.
        if !is_healthy(m) {
            report.dropped_unhealthy += 1;
            if m.noise_truth != NoiseTruth::Clean {
                report.dropped_truly_noisy += 1;
            }
            continue;
        }
        // Rule 1: refetch consistency (only checkable when the user's
        // price was captured).
        let refetch = m.user_price.and_then(|p| user_refetch(m).map(|r| (p, r)));
        if let Some((user_price, refetched)) = refetch {
            let day = m.day().min(fx.days().saturating_sub(1));
            if let Some(verdict) = band_filter(fx, &[user_price, refetched], day) {
                if verdict.genuine {
                    // The user's own display cannot be reproduced from
                    // the URI: customization-style noise.
                    report.dropped_inconsistent += 1;
                    if m.noise_truth != NoiseTruth::Clean {
                        report.dropped_truly_noisy += 1;
                    }
                    continue;
                }
            }
        }
        if m.noise_truth != NoiseTruth::Clean {
            report.kept_truly_noisy += 1;
        }
        report.kept += 1;
        kept_store.push(m.clone());
    }
    (kept_store, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::PriceObservation;
    use pd_currency::{Currency, Price};
    use pd_net::clock::SimTime;
    use pd_util::{Money, RequestId, Seed, UserId, VantageId};

    fn fx() -> FxSeries {
        FxSeries::generate(Seed::new(1307), 160)
    }

    fn usd(minor: i64) -> Price {
        Price::new(Money::from_minor(minor), Currency::Usd)
    }

    fn meas(
        user_price: Option<Price>,
        obs_prices: &[Option<i64>],
        noise: NoiseTruth,
    ) -> Measurement {
        Measurement {
            request: RequestId::new(0),
            user: UserId::new(0),
            domain: "shop.example".into(),
            product_slug: "x".into(),
            time: SimTime::from_millis(10 * 24 * 3_600_000),
            user_price,
            observations: obs_prices
                .iter()
                .enumerate()
                .map(|(i, p)| match p {
                    Some(minor) => {
                        PriceObservation::ok(VantageId::new(i as u32), usd(*minor), String::new())
                    }
                    None => PriceObservation::failed(VantageId::new(i as u32), "err".into()),
                })
                .collect(),
            noise_truth: noise,
        }
    }

    #[test]
    fn clean_measurement_is_kept() {
        let mut store = MeasurementStore::new();
        store.push(meas(
            Some(usd(10_000)),
            &[Some(10_000), Some(10_000), Some(12_000)],
            NoiseTruth::Clean,
        ));
        let (kept, report) = clean(&store, &fx(), |_| Some(usd(10_000)));
        assert_eq!(kept.len(), 1);
        assert_eq!(report.kept, 1);
        assert_eq!(report.dropped_inconsistent, 0);
        assert_eq!(report.dropped_unhealthy, 0);
    }

    #[test]
    fn customization_mismatch_is_dropped() {
        let mut store = MeasurementStore::new();
        // User saw $115 (customized +15 %); the URI serves $100.
        store.push(meas(
            Some(usd(11_500)),
            &[Some(10_000), Some(10_000), Some(10_000)],
            NoiseTruth::Customization,
        ));
        let (kept, report) = clean(&store, &fx(), |_| Some(usd(10_000)));
        assert_eq!(kept.len(), 0);
        assert_eq!(report.dropped_inconsistent, 1);
        assert_eq!(report.dropped_truly_noisy, 1);
    }

    #[test]
    fn majority_failures_dropped() {
        let mut store = MeasurementStore::new();
        store.push(meas(
            Some(usd(10_000)),
            &[Some(10_000), None, None, None],
            NoiseTruth::Clean,
        ));
        let (kept, report) = clean(&store, &fx(), |_| Some(usd(10_000)));
        assert_eq!(kept.len(), 0);
        assert_eq!(report.dropped_unhealthy, 1);
    }

    #[test]
    fn missing_user_price_passes_refetch_rule() {
        // Without a captured user price the refetch rule cannot apply;
        // health rule alone decides.
        let mut store = MeasurementStore::new();
        store.push(meas(None, &[Some(100), Some(100)], NoiseTruth::Clean));
        let (kept, _) = clean(&store, &fx(), |_| None);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn report_tracks_misses() {
        // A mis-highlight that happens to be self-consistent slips
        // through — the report records it as a kept-noisy miss.
        let mut store = MeasurementStore::new();
        store.push(meas(
            Some(usd(1_000)),
            &[Some(1_000), Some(1_000)],
            NoiseTruth::MisHighlight,
        ));
        let (kept, report) = clean(&store, &fx(), |_| Some(usd(1_000)));
        assert_eq!(kept.len(), 1);
        assert_eq!(report.kept_truly_noisy, 1);
    }

    #[test]
    fn genuine_variation_is_not_mistaken_for_noise() {
        // The refetch rule compares the *user's* price with the *user's
        // own location* refetch — a retailer that discriminates across
        // locations still yields a consistent pair here and is kept.
        let mut store = MeasurementStore::new();
        store.push(meas(
            Some(usd(10_000)),
            &[Some(10_000), Some(13_000)], // real cross-location variation
            NoiseTruth::Clean,
        ));
        let (kept, report) = clean(&store, &fx(), |_| Some(usd(10_000)));
        assert_eq!(kept.len(), 1);
        assert_eq!(report.dropped_inconsistent, 0);
    }

    #[test]
    fn refetches_exactly_the_records_that_reach_rule_one() {
        let mut store = MeasurementStore::new();
        for (i, (user, obs)) in [
            (Some(usd(100)), &[Some(100), Some(100)][..]),
            (None, &[Some(100), Some(100)][..]),
            (Some(usd(100)), &[Some(100), None, None][..]),
            (Some(usd(200)), &[Some(200), None][..]),
        ]
        .into_iter()
        .enumerate()
        {
            let mut m = meas(user, obs, NoiseTruth::Clean);
            m.product_slug = format!("p{i}");
            store.push(m);
        }
        let expected: Vec<String> = store
            .records()
            .iter()
            .filter(|m| reaches_refetch(m))
            .map(|m| m.product_slug.clone())
            .collect();
        assert_eq!(expected, ["p0", "p3"]);
        let mut asked = Vec::new();
        clean(&store, &fx(), |m| {
            asked.push(m.product_slug.clone());
            None
        });
        assert_eq!(asked, expected);
    }
}
