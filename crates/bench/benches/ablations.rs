//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! Each ablation measures the runtime of the two alternatives *and*
//! prints the quality metric that justifies the paper's choice (visible
//! in the bench log):
//!
//! 1. exchange-band filter vs naive mid-rate comparison — false-positive
//!    rate on non-discriminating retailers;
//! 2. synchronized vs desynchronized fan-out — spurious variations under
//!    temporal price drift;
//! 3. highlight extraction vs naive first-symbol extraction — accuracy
//!    over the template corpus;
//! 4. measurement repeats vs A/B noise — false "persistent variation"
//!    flags as the repeat count grows;
//! 5. crowd size — discriminating retailers discovered per crowd budget.

use criterion::{criterion_group, criterion_main, Criterion};
use pd_core::scenario::ScenarioRun;
use pd_core::{Experiment, ExperimentConfig, Profile, ScenarioRegistry, World};
use pd_currency::{band_filter, Locale};
use pd_extract::{extract_naive, HighlightExtractor};
use pd_net::clock::SimTime;
use pd_net::geo::Country;
use pd_sheriff::CrowdConfig;
use pd_web::template::{price_selector, render, RenderInput};
use std::hint::black_box;

/// Ablation 1: the currency filter. Naive detection converts at the mid
/// rate and flags any ratio > 1.001; the band filter requires the gap to
/// exceed the daily extreme-rate band.
fn ablation_currency_filter(c: &mut Criterion) {
    // Crawl non-discriminating filler retailers: every flag is false.
    let mut config = Profile::Small.config(1307);
    config.filler_domains = 40;
    let world = World::build(&config);
    // Uniform AND not a tax-inliner: the tax confound produces *real*
    // (but non-discrimination) variation and is handled by the pipeline's
    // tax check, not the currency filter under ablation here.
    let uniform_domains: Vec<String> = world
        .web
        .servers()
        .iter()
        .filter(|s| !s.spec().is_discriminating() && !s.spec().inlines_tax)
        .take(6)
        .map(|s| s.spec().domain.clone())
        .collect();
    let crawler = pd_crawler::Crawler::new(
        pd_util::Seed::new(1),
        pd_crawler::CrawlConfig {
            products_per_retailer: 10,
            days: 2,
            start_day: 45,
            ..pd_crawler::CrawlConfig::default()
        },
    );
    let (store, _) = crawler.crawl(&world.web, &world.sheriff, &uniform_domains);
    let fx = world.web.fx();

    let naive_fp = store
        .records()
        .iter()
        .filter(|m| {
            let day = m.day().min(fx.days() - 1);
            band_filter(fx, &m.prices(), day)
                .map(|v| v.nominal_ratio > 1.001)
                .unwrap_or(false)
        })
        .count();
    let band_fp = store
        .records()
        .iter()
        .filter(|m| {
            let day = m.day().min(fx.days() - 1);
            band_filter(fx, &m.prices(), day)
                .map(|v| v.genuine)
                .unwrap_or(false)
        })
        .count();
    println!(
        "[ablation:currency-filter] {} uniform-retailer checks: naive mid-rate flags {} false positives, band filter flags {}",
        store.len(),
        naive_fp,
        band_fp
    );
    assert_eq!(band_fp, 0, "band filter must be exact on uniform retailers");

    let mut g = c.benchmark_group("ablation_currency_filter");
    g.bench_function("band_filter_pass", |b| {
        b.iter(|| {
            let flags: usize = store
                .records()
                .iter()
                .filter(|m| {
                    band_filter(fx, &m.prices(), m.day().min(fx.days() - 1))
                        .map(|v| v.genuine)
                        .unwrap_or(false)
                })
                .count();
            black_box(flags)
        });
    });
    g.finish();
}

/// Ablation 2: synchronization, driven by the named `desync-ablation`
/// scenario. The scenario's two arms deliver worlds whose fan-out
/// engines are configured sync/desync at construction — nothing mutates
/// pipeline internals. A drifting retailer (booking-like) is then
/// checked under both; the spread in observed variation is the noise
/// synchronization removes.
fn ablation_synchronization(c: &mut Criterion) {
    let registry = ScenarioRegistry::builtin();
    let scenario = registry.get("desync-ablation").expect("registered");
    assert!(matches!(
        scenario.plan(&pd_core::ScenarioParams {
            seed: 1307,
            profile: Profile::Small,
        }),
        ScenarioRun::Sweep(_)
    ));
    // Build each arm's engine; the plan carries the skew into the
    // sheriff (25-minute per-probe skew lands probes 8..=13 — the US
    // fleet — at 23:20 ... 01:25 around the check's midnight: some
    // before the daily reprice, some after, exactly the failure mode
    // the paper's synchronization prevents).
    let engines: Vec<(String, pd_core::Engine)> = Experiment::builder()
        .scenario("desync-ablation")
        .profile(Profile::Small)
        .seed(1307)
        .build_variants()
        .expect("registered sweep scenario");

    // Isolate the temporal effect: compare only the six US probes
    // (booking.com prices the whole US identically, so any intra-US
    // variation is a pure artifact of the fetch-time spread).
    let us_range = 8usize..=13;
    let run = |world: &World| -> usize {
        let fx = world.web.fx();
        let server = world.web.server_by_domain("www.booking.com").unwrap();
        let slugs: Vec<String> = server
            .catalog()
            .iter()
            .take(20)
            .map(|p| p.slug.clone())
            .collect();
        let style = server.spec().template_style;
        let time = SimTime::from_millis(30 * 24 * 3_600_000 + 20 * 3_600_000); // 20:00
        let mut spurious = 0;
        for slug in &slugs {
            let path = format!("/product/{slug}");
            let req = pd_web::Request::get(
                "www.booking.com",
                &path,
                world.sheriff.vantage_points()[0].addr,
                time,
            );
            let doc = pd_html::parse(&world.web.fetch(&req).body);
            let Some(ex) = HighlightExtractor::from_highlight(&doc, &price_selector(style)) else {
                continue;
            };
            let obs = world
                .sheriff
                .check(&world.web, "www.booking.com", &path, &ex, time, &[]);
            let prices: Vec<_> = obs
                .iter()
                .enumerate()
                .filter(|(i, _)| us_range.contains(i))
                .filter_map(|(_, o)| o.price)
                .collect();
            if let Some(v) = band_filter(fx, &prices, time.day_index() as usize) {
                if v.genuine {
                    spurious += 1;
                }
            }
        }
        spurious
    };

    let sync_flags = run(engines[0].1.world());
    let desync_flags = run(engines[1].1.world());
    println!(
        "[ablation:synchronization] scenario desync-ablation ({} vs {}): 20 products, six \
         same-price US probes on a drifting retailer: sync flags {sync_flags} (must be 0), \
         desync flags {desync_flags} (spread straddles the daily reprice boundary)",
        engines[0].0, engines[1].0
    );
    assert_eq!(sync_flags, 0, "synchronized intra-US checks must be clean");
    assert!(
        desync_flags > 0,
        "desynchronization must manufacture spurious variation"
    );

    let mut g = c.benchmark_group("ablation_synchronization");
    g.sample_size(10);
    g.bench_function("synchronized_sweep", |b| {
        b.iter(|| black_box(run(engines[0].1.world())));
    });
    g.bench_function("desynchronized_sweep", |b| {
        b.iter(|| black_box(run(engines[1].1.world())));
    });
    g.finish();
}

/// Ablation 3: extraction strategy accuracy over the template corpus.
fn ablation_extraction(c: &mut Criterion) {
    let locales = [Country::UnitedStates, Country::Germany, Country::Poland];
    let truth = pd_util::Money::from_minor(129_900);
    let mut naive_correct = 0;
    let mut highlight_correct = 0;
    let mut total = 0;
    let mut pages = Vec::new();
    for style in 0..5u8 {
        for country in locales {
            let loc = Locale::of_country(country);
            let input = RenderInput {
                domain: "shop.example",
                product_name: "Widget",
                price_text: loc.format(truth),
                recommended: vec![(
                    "Other".to_owned(),
                    loc.format(pd_util::Money::from_minor(999)),
                )],
                third_parties: &[],
                promo_text: "Save $10 today!".to_owned(),
            };
            let doc = render(style, &input);
            total += 1;
            if let Some(p) = extract_naive(&doc) {
                if p.amount == truth {
                    naive_correct += 1;
                }
            }
            let ex = HighlightExtractor::from_highlight(&doc, &price_selector(style)).unwrap();
            if let Ok(e) = ex.extract(&doc, Some(loc)) {
                if e.price.amount == truth {
                    highlight_correct += 1;
                }
            }
            pages.push((doc, style, country));
        }
    }
    println!(
        "[ablation:extraction] template corpus ({total} pages): highlight {highlight_correct}/{total} correct, naive first-symbol {naive_correct}/{total}"
    );
    assert_eq!(
        highlight_correct, total,
        "highlight extraction must be exact"
    );
    assert!(
        naive_correct < total,
        "the naive strawman must fail somewhere, else the ablation is vacuous"
    );

    let mut g = c.benchmark_group("ablation_extraction");
    g.bench_function("highlight_corpus", |b| {
        b.iter(|| {
            let mut ok = 0;
            for (doc, style, country) in &pages {
                let ex = HighlightExtractor::from_highlight(doc, &price_selector(*style)).unwrap();
                if ex.extract(doc, Some(Locale::of_country(*country))).is_ok() {
                    ok += 1;
                }
            }
            black_box(ok)
        });
    });
    g.bench_function("naive_corpus", |b| {
        b.iter(|| {
            let ok = pages
                .iter()
                .filter(|(doc, _, _)| extract_naive(doc).is_some())
                .count();
            black_box(ok)
        });
    });
    g.finish();
}

/// Ablation 4: repeats vs A/B noise. An A/B test is *visible* within a
/// single fan-out (each vantage is its own session, so buckets differ),
/// but it masquerades as **location-keyed** discrimination only if the
/// same vantage point keeps winning. The paper's repeated measurements
/// break exactly that: a product is flagged "location-consistent" when
/// the same vantage is the dearest in every repeat — for A/B noise that
/// probability collapses with the repeat count, while a genuinely
/// location-keyed retailer stays at 100 %.
fn ablation_repeats(c: &mut Criterion) {
    let world = &World::build(&Profile::Small.config(1307));
    let fx = world.web.fx();

    let consistent_with_repeats = |domain: &str, k: usize| -> usize {
        let server = world.web.server_by_domain(domain).unwrap();
        let style = server.spec().template_style;
        let slugs: Vec<String> = server
            .catalog()
            .iter()
            .take(30)
            .map(|p| p.slug.clone())
            .collect();
        slugs
            .iter()
            .filter(|slug| {
                let path = format!("/product/{slug}");
                let mut dearest: Option<usize> = None;
                for rep in 0..k {
                    let time =
                        SimTime::from_millis((30 + rep as u64) * 24 * 3_600_000 + 12 * 3_600_000);
                    let req = pd_web::Request::get(
                        domain,
                        &path,
                        world.sheriff.vantage_points()[0].addr,
                        time,
                    );
                    let doc = pd_html::parse(&world.web.fetch(&req).body);
                    let Some(ex) = HighlightExtractor::from_highlight(&doc, &price_selector(style))
                    else {
                        return false;
                    };
                    let obs = world
                        .sheriff
                        .check(&world.web, domain, &path, &ex, time, &[]);
                    let prices: Vec<_> = obs.iter().filter_map(|o| o.price).collect();
                    let genuine = band_filter(fx, &prices, time.day_index() as usize)
                        .map(|v| v.genuine)
                        .unwrap_or(false);
                    if !genuine {
                        return false;
                    }
                    // Which vantage saw the highest USD price?
                    let day = time.day_index() as usize;
                    let argmax = obs
                        .iter()
                        .enumerate()
                        .filter_map(|(i, o)| o.price.map(|p| (i, fx.to_usd_mid(p, day))))
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                        .map(|(i, _)| i);
                    match (dearest, argmax) {
                        (None, Some(i)) => dearest = Some(i),
                        (Some(prev), Some(i)) if prev == i => {}
                        _ => return false, // inconsistent winner
                    }
                }
                true
            })
            .count()
    };

    let ab_k1 = consistent_with_repeats("www.sears.com", 1);
    let ab_k3 = consistent_with_repeats("www.sears.com", 3);
    let loc_k3 = consistent_with_repeats("www.misssixty.com", 3);
    println!(
        "[ablation:repeats] location-consistent flags over 30 products: A/B retailer k=1: {ab_k1}, \
         k=3: {ab_k3}; location-keyed retailer k=3: {loc_k3} (A/B collapses, real discrimination persists)"
    );
    assert!(
        ab_k3 < ab_k1,
        "repeats must collapse A/B location-consistency ({ab_k1} -> {ab_k3})"
    );
    assert!(
        loc_k3 >= 25,
        "genuine location pricing must survive repeats: {loc_k3}/30"
    );

    let flagged_with_repeats = |k: usize| consistent_with_repeats("www.sears.com", k);

    let mut g = c.benchmark_group("ablation_repeats");
    g.sample_size(10);
    g.bench_function("k1", |b| b.iter(|| black_box(flagged_with_repeats(1))));
    g.bench_function("k3", |b| b.iter(|| black_box(flagged_with_repeats(3))));
    g.finish();
}

/// Ablation 5: the value of the crowd — discriminating domains
/// discovered as the check budget grows. Uses the builder + the cached
/// crowd artifact (the crawl/analysis stages never run).
fn ablation_crowd_size(c: &mut Criterion) {
    let discovered = |checks: usize| -> usize {
        let mut config = ExperimentConfig::small(1307);
        config.crowd = CrowdConfig {
            users: 60,
            checks,
            window_days: 40,
            ..CrowdConfig::default()
        };
        let mut engine = Experiment::builder()
            .config(config)
            .build()
            .expect("paper scenario with explicit config");
        let cleaned = engine.crowd().cleaned.clone();
        pd_core::stage::targets_from_crowd(engine.world(), &cleaned, 1).len()
    };
    let d50 = discovered(50);
    let d150 = discovered(150);
    let d400 = discovered(400);
    println!(
        "[ablation:crowd-size] discriminating domains discovered: 50 checks → {d50}, 150 → {d150}, 400 → {d400} (should grow)"
    );
    assert!(d400 >= d50, "a bigger crowd must not discover less");

    let mut g = c.benchmark_group("ablation_crowd_size");
    g.sample_size(10);
    g.bench_function("campaign_150_checks", |b| {
        b.iter(|| black_box(discovered(150)));
    });
    g.finish();
}

criterion_group!(
    benches,
    ablation_currency_filter,
    ablation_synchronization,
    ablation_extraction,
    ablation_repeats,
    ablation_crowd_size
);
criterion_main!(benches);
