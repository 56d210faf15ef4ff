//! The attribution extension (the paper's Sec. 6 future work) validated
//! end to end against ground truth across the whole crawled set.

use pd_core::{stage, Experiment, ExperimentConfig, Profile, StageKind, TimingObserver, World};
use pd_pricing::StrategyComponent;
use std::sync::Arc;

#[test]
fn attribution_table_matches_ground_truth_for_all_crawled_retailers() {
    let config = ExperimentConfig::small(1307);
    let world = World::build(&config);
    for domain in world.paper_crawl_targets() {
        let attribution =
            stage::attribute_factors(&world, &config, &domain, 12).expect("crawled domain exists");
        let spec = world.web.server_by_domain(&domain).unwrap().spec().clone();

        // Ground truth: which factor *kinds* the strategy pipeline uses.
        let has = |f: &dyn Fn(&StrategyComponent) -> bool| spec.components.iter().any(f);
        let truth_session = has(&|c| {
            matches!(
                c,
                StrategyComponent::SessionJitter { .. } | StrategyComponent::AbTest { .. }
            )
        });
        let truth_day = has(&|c| matches!(c, StrategyComponent::TemporalDrift { .. }));

        // Session and day attribution must agree with ground truth
        // exactly (these probes are same-currency and same-product, so
        // there is no statistical slack).
        assert_eq!(
            attribution.effect(pd_analysis::Factor::Session).varies,
            truth_session,
            "{domain}: session attribution"
        );
        assert_eq!(
            attribution.effect(pd_analysis::Factor::Day).varies,
            truth_day,
            "{domain}: day attribution"
        );
        // Login never varies anything — the paper's null result, now
        // verified per retailer.
        assert!(
            !attribution.effect(pd_analysis::Factor::Login).varies,
            "{domain}: login must not move prices"
        );
    }
}

#[test]
fn location_attribution_flags_only_location_keyed_retailers() {
    let config = ExperimentConfig::small(1307);
    let world = World::build(&config);
    let attribute = |domain: &str| stage::attribute_factors(&world, &config, domain, 12);
    // Location-keyed retailers must attribute to Country (probed with a
    // US/Finland pair; every crawled spec prices Finland or US away from
    // base except the pure city-level one).
    for domain in ["www.digitalrev.com", "www.energie.it", "www.hotels.com"] {
        let a = attribute(domain).unwrap();
        assert!(
            a.effect(pd_analysis::Factor::Country).varies,
            "{domain} must vary by country"
        );
    }
    // homedepot's country-level Finland factor is small (1.06) but real;
    // its city factor must *also* fire — the unique city-keyed retailer.
    let hd = attribute("www.homedepot.com").unwrap();
    assert!(hd.effect(pd_analysis::Factor::CityWithinCountry).varies);
    // And a non-city retailer must not fire the city probe.
    let dr = attribute("www.digitalrev.com").unwrap();
    assert!(!dr.effect(pd_analysis::Factor::CityWithinCountry).varies);
}

/// The personas stage's copy counters for paper@small at `seed` and
/// `threads`: `(copies, extracted)` per probe family.
fn probe_copy_counters(seed: u64, threads: usize) -> Vec<(String, u64)> {
    let observer = Arc::new(TimingObserver::new());
    let mut engine = Experiment::builder()
        .scenario("paper")
        .profile(Profile::Small)
        .seed(seed)
        .threads(threads)
        .observer(observer.clone())
        .build()
        .expect("paper scenario builds");
    engine.personas();
    observer
        .timings()
        .iter()
        .filter(|t| t.stage == StageKind::Personas)
        .flat_map(|t| t.counters.iter().cloned())
        .filter(|(name, _)| {
            ["_copies", "_extracted", "_resumed"]
                .iter()
                .any(|suffix| name.ends_with(suffix))
        })
        .collect()
}

/// Every probe page goes through one `PageReader` scope, so a copy
/// byte-identical to an earlier one from the same country is not parsed
/// again, and every later extracted copy resumes the parse of the one
/// before it. Pinned at paper@small seed 1307: a lost reuse raises an
/// `_extracted` count, a key widened past (country, body) lowers it, a
/// copy that no longer resumes lowers a `_resumed` count.
#[test]
fn probes_extract_each_distinct_copy_once() {
    let pairs = |v: &[(&str, u64)]| -> Vec<(String, u64)> {
        v.iter().map(|(n, c)| ((*n).to_owned(), *c)).collect()
    };
    let expected = pairs(&[
        // 15 ebooks × 4 identities; amazon's session jitter makes every
        // copy its own.
        ("login_copies", 60),
        ("login_extracted", 60),
        // Each row's first copy is parsed from scratch: 15 × 3.
        ("login_resumed", 45),
        // 4 domains × 8 products × 2 personas; no retailer reads the
        // persona cookie, so the budget copy repeats the affluent one.
        ("persona_copies", 64),
        ("persona_extracted", 32),
        // One scope per domain: 4 × (8 - 1).
        ("persona_resumed", 28),
        // 21 retailers × 8 products × 12 probes.
        ("attribution_copies", 2016),
        ("attribution_extracted", 424),
        // One scope per product: 424 - 21 × 8.
        ("attribution_resumed", 256),
    ]);
    assert_eq!(probe_copy_counters(1307, 1), expected);
    assert_eq!(probe_copy_counters(1307, 2), expected);
}

/// The crowd and crawl stages' fan-out counters for paper@small at
/// `seed` and `threads`: `(stage, counter, value)` for the copies, the
/// extracted copies and the extractions that resumed a parse.
fn fanout_copy_counters(seed: u64, threads: usize) -> Vec<(StageKind, String, u64)> {
    let observer = Arc::new(TimingObserver::new());
    let mut engine = Experiment::builder()
        .scenario("paper")
        .profile(Profile::Small)
        .seed(seed)
        .threads(threads)
        .observer(observer.clone())
        .build()
        .expect("paper scenario builds");
    engine.crowd();
    engine.crawl();
    observer
        .timings()
        .iter()
        .filter(|t| matches!(t.stage, StageKind::Crowd | StageKind::Crawl))
        .flat_map(|t| t.counters.iter().map(|(n, c)| (t.stage, n.clone(), *c)))
        .filter(|(_, name, _)| matches!(name.as_str(), "copies" | "extracted" | "resumed"))
        .collect()
}

/// Every synchronized check extracts each distinct copy once and parses
/// each distinct copy by resuming the parse of the one before it
/// (`PageReader`). Pinned at paper@small seed 1307: a lost reuse raises
/// `extracted`, a copy that no longer resumes lowers `resumed`.
#[test]
fn checks_resume_every_later_distinct_copy() {
    let expected = vec![
        // 150 checks × 14 copies; the user's own copy is parsed whole
        // first, so every extracted copy resumes, the first from it.
        (StageKind::Crowd, "copies".to_owned(), 2100),
        (StageKind::Crowd, "extracted".to_owned(), 1287),
        (StageKind::Crowd, "resumed".to_owned(), 1287),
        // 756 checks × 14 copies, no retries; every check's first
        // extracted copy is parsed from scratch, every later one resumes.
        (StageKind::Crawl, "copies".to_owned(), 10_584),
        (StageKind::Crawl, "extracted".to_owned(), 5781),
        (StageKind::Crawl, "resumed".to_owned(), 5025),
    ];
    assert_eq!(fanout_copy_counters(1307, 1), expected);
    assert_eq!(fanout_copy_counters(1307, 2), expected);
}
