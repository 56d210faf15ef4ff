//! Typed stage artifacts and the stage functions that produce them.
//!
//! The paper's study is a funnel of four stages; each one now has an
//! explicit, serializable artifact so callers can run, cache, reuse and
//! inspect intermediate results instead of re-running the whole world:
//!
//! * [`CrowdArtifact`] — the crowd campaign: raw store, cleaned store,
//!   [`CleaningReport`],
//! * [`CrawlArtifact`] — the systematic crawl: store + per-retailer stats,
//! * [`PersonaArtifact`] — the Sec. 4.4 login and persona probes, plus
//!   the analysis's web probes ([`ProbeRecord`]),
//! * [`AnalysisArtifact`] — every figure and table ([`Report`]).
//!
//! The measurement stage functions are free functions over `(&World,
//! plan/config, &Executor, &TimingObserver)`; the analysis takes the
//! plan's [`AnalysisContext`] instead of the world. A stage function
//! reports its counters into the observer; the engine times it. The
//! caching engine ([`crate::Engine`]) calls them, and so can any caller
//! that wants a stage recomputed, so a stage behaves identically whether
//! it is cached, re-run, loaded from an on-disk store
//! ([`crate::store`]), sequential or fanned across worker threads.
//!
//! ```
//! use pd_core::{Executor, ExperimentConfig, RunPlan, TimingObserver, World};
//!
//! // A stage is just a function of the world and its plan.
//! let plan = RunPlan::new(ExperimentConfig::smoke(7));
//! let world = World::build(&plan.config);
//! let obs = TimingObserver::new();
//! let crowd = pd_core::stage::crowd_stage(&world, &plan, &Executor::serial(), &obs);
//! assert!(crowd.cleaned.len() <= crowd.raw.len(), "cleaning only drops");
//! ```

use crate::config::ExperimentConfig;
use crate::executor::Executor;
use crate::frames::{FrameStats, StoreCache, StoreFrame};
use crate::observer::{StageKind, TimingObserver};
use crate::report::{Fig8Grid, Report};
use crate::scenario::RunPlan;
use crate::store::{Artifact, ChunkedPayload, StoreError};
use crate::world::{AnalysisContext, World};
use pd_analysis::thirdparty::{self, ThirdPartyTable};
use pd_analysis::{crawl, crowd as crowd_figs, location, login, strategy, summary, Attribution};
use pd_crawler::crawl::RetailerCrawlStats;
use pd_crawler::{select_targets, Crawler};
use pd_currency::Locale;
use pd_html::Selector;
use pd_net::clock::SimTime;
use pd_net::geo::{Country, Location};
use pd_sheriff::cleaning::{clean, reaches_refetch, CleaningReport};
use pd_sheriff::personas::{self, LoginExperiment, PersonaExperiment};
use pd_sheriff::{CopyTally, MeasurementStore, PageReader};
use pd_web::template::{price_selector, FAMILY_COUNT};
use pd_web::Request;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// The crowd-stage artifact: the raw campaign, the cleaned store and the
/// cleaning accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrowdArtifact {
    /// Every measurement the campaign produced, noise included.
    pub raw: MeasurementStore,
    /// The store after the Sec. 3.2 cleaning rules and the automated tax
    /// check (equal to `raw` when the plan disables cleaning).
    pub cleaned: MeasurementStore,
    /// What the cleaning pass did.
    pub cleaning: CleaningReport,
}

/// The crawl-stage artifact: the crawled dataset plus bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrawlArtifact {
    /// Every crawl probe.
    pub store: MeasurementStore,
    /// Per-retailer bookkeeping, in target order.
    pub stats: Vec<RetailerCrawlStats>,
}

/// The persona-stage artifact: the Sec. 4.4 controlled probes, and the
/// analysis's web probes measured alongside them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PersonaArtifact {
    /// The Fig. 10 login experiment.
    pub login: LoginExperiment,
    /// The affluent-vs-budget persona experiment.
    pub persona: PersonaExperiment,
    /// The analysis's web probes ([`run_probes`]). `None` in stores
    /// written before the probes moved into this stage; analysis then
    /// probes itself.
    pub probes: Option<ProbeRecord>,
}

/// The web probes the report needs beyond the measurement stores: the
/// per-retailer factor attribution and the third-party scan over the
/// paper's crawl targets. Measured once by [`persona_stage`] and stored
/// with its artifact, so a re-analysis fetches no pages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeRecord {
    /// Products probed per retailer (the
    /// [`crate::config::AnalysisConfig::attribution_products`] the
    /// record was measured with).
    pub attribution_products: usize,
    /// One attribution table per known retailer, in target order.
    pub attribution: Vec<Attribution>,
    /// Third-party presence over the crawl targets.
    pub third_party: ThirdPartyTable,
}

/// The analysis-stage artifact: the full report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisArtifact {
    /// Every figure and table of the paper's evaluation.
    pub report: Report,
}

impl Artifact for CrowdArtifact {
    const SECTIONS: &'static [&'static str] = &["raw", "cleaned"];

    fn section(&self, name: &str) -> Option<&MeasurementStore> {
        match name {
            "raw" => Some(&self.raw),
            "cleaned" => Some(&self.cleaned),
            _ => None,
        }
    }

    fn section_mut(&mut self, name: &str) -> Option<&mut MeasurementStore> {
        match name {
            "raw" => Some(&mut self.raw),
            "cleaned" => Some(&mut self.cleaned),
            _ => None,
        }
    }

    fn hollow(&self) -> Cow<'_, Self> {
        Cow::Owned(CrowdArtifact {
            raw: MeasurementStore::new(),
            cleaned: MeasurementStore::new(),
            cleaning: self.cleaning,
        })
    }
}

impl Artifact for CrawlArtifact {
    const SECTIONS: &'static [&'static str] = &["store"];

    fn section(&self, name: &str) -> Option<&MeasurementStore> {
        (name == "store").then_some(&self.store)
    }

    fn section_mut(&mut self, name: &str) -> Option<&mut MeasurementStore> {
        (name == "store").then_some(&mut self.store)
    }

    fn hollow(&self) -> Cow<'_, Self> {
        Cow::Owned(CrawlArtifact {
            store: MeasurementStore::new(),
            stats: self.stats.clone(),
        })
    }
}

impl Artifact for PersonaArtifact {}

impl Artifact for AnalysisArtifact {}

/// Stage 2: the crowd campaign plus cleaning. The campaign is planned
/// sequentially (one RNG stream) and the planned checks are fanned
/// across the executor; plan-order merging keeps the store identical to
/// a sequential run.
#[must_use]
pub fn crowd_stage(
    world: &World,
    plan: &RunPlan,
    exec: &Executor,
    obs: &TimingObserver,
) -> CrowdArtifact {
    let plans = world.crowd.plan_campaign(&world.web);
    obs.counter(StageKind::Crowd, "planned_checks", plans.len() as u64);
    let results = exec.map_indexed(plans.len(), |i| {
        let mut tally = CopyTally::default();
        let m = world
            .crowd
            .execute_check(&world.web, &world.sheriff, &plans[i], &mut tally);
        (m, tally)
    });
    let mut raw = MeasurementStore::new();
    let mut tally = CopyTally::default();
    for (m, t) in results {
        if let Some(m) = m {
            raw.push(m);
        }
        tally += t;
    }
    obs.counter(StageKind::Crowd, "measurements", raw.len() as u64);
    fanout_counters(obs, StageKind::Crowd, tally);

    let (cleaned, cleaning) = if plan.cleaning {
        clean_crowd_store(world, &plan.config, &raw, exec)
    } else {
        skip_cleaning(&raw)
    };
    obs.counter(StageKind::Crowd, "kept", cleaning.kept as u64);
    CrowdArtifact {
        raw,
        cleaned,
        cleaning,
    }
}

/// The Sec. 3.2 cleaning rules plus the automated per-domain tax check.
fn clean_crowd_store(
    world: &World,
    config: &ExperimentConfig,
    raw: &MeasurementStore,
    exec: &Executor,
) -> (MeasurementStore, CleaningReport) {
    let web = &world.web;
    let crowd = &world.crowd;
    let fx = web.fx();
    // One parsed highlight selector per template family, not per refetch.
    let selectors: Vec<Selector> = (0..FAMILY_COUNT).map(price_selector).collect();
    // Refetch the URI as the user's own browser would and re-extract
    // with the retailer's template highlight. Every refetch is pure, so
    // the ones `clean` asks for are computed across the executor first
    // and handed to it in record order.
    let refetch = |m: &pd_sheriff::Measurement| {
        let user = crowd.users().get(m.user.index())?;
        let server = web.server_by_domain(&m.domain)?;
        let family = usize::from(server.spec().template_style % FAMILY_COUNT);
        PageReader::new().own_page_price(
            web,
            &selectors[family],
            &m.domain,
            &m.product_slug,
            (user.addr(), user.location.country),
            m.time,
            &[],
        )
    };
    let asked: Vec<&pd_sheriff::Measurement> = raw
        .records()
        .iter()
        .filter(|m| reaches_refetch(m))
        .collect();
    let mut refetched = exec
        .map_indexed(asked.len(), |i| refetch(asked[i]))
        .into_iter();
    let (mut cleaned, mut report) = clean(raw, fx, |_| {
        refetched
            .next()
            .expect("clean refetches exactly the records that reach rule 1")
    });
    // The paper's manual tax check, automated: drop domains whose
    // variation is explained by inlined taxes (pre-tax checkout items
    // agree across locations while displayed prices differ). Pure per
    // domain, so it fans across the executor.
    let domains = cleaned.domains();
    let verdicts = exec.map_indexed(domains.len(), |i| {
        is_tax_explained(world, config, &domains[i])
    });
    let tax_explained: std::collections::HashSet<&str> = domains
        .iter()
        .zip(&verdicts)
        .filter(|(_, v)| **v)
        .map(|(d, _)| d.as_str())
        .collect();
    let dropped = cleaned.retain(|m| !tax_explained.contains(m.domain.as_str()));
    report.dropped_tax_explained += dropped;
    report.kept -= dropped;
    (cleaned, report)
}

/// The `no-cleaning` ablation: keep everything, account honestly.
fn skip_cleaning(raw: &MeasurementStore) -> (MeasurementStore, CleaningReport) {
    let kept_truly_noisy = raw
        .records()
        .iter()
        .filter(|m| m.noise_truth != pd_sheriff::measurement::NoiseTruth::Clean)
        .count();
    (
        raw.clone(),
        CleaningReport {
            kept: raw.len(),
            dropped_inconsistent: 0,
            dropped_unhealthy: 0,
            dropped_tax_explained: 0,
            dropped_truly_noisy: 0,
            kept_truly_noisy,
        },
    )
}

/// The automated version of the paper's manual tax/shipping check: fetch
/// the same product's *checkout* from two countries with the same
/// session; if the pre-tax item lines agree (within the exchange band)
/// while the displayed product prices genuinely differ, the variation is
/// tax inlining, not discrimination.
#[must_use]
pub fn is_tax_explained(world: &World, config: &ExperimentConfig, domain: &str) -> bool {
    let web = &world.web;
    let fx = web.fx();
    let Some(server) = web.server_by_domain(domain) else {
        return false;
    };
    let Some(product) = server.catalog().iter().next() else {
        return false;
    };
    let selector = price_selector(server.spec().template_style);
    let amount_cells = Selector::parse("td.line-amount").expect("static selector");
    let probe_a = world.vantage_by_label("USA - Boston");
    let probe_b = world.vantage_by_label("Germany - Berlin");
    let (Some(a), Some(b)) = (probe_a, probe_b) else {
        return false;
    };
    let time = SimTime::from_millis(config.crowd.window_days * 24 * 3_600_000 + 9 * 3_600_000);
    let day = (time.day_index() as usize).min(fx.days().saturating_sub(1));

    // The two product pages share one scope: the second resumes the
    // parse of the first.
    let mut reader = PageReader::new();
    let mut page_price = |addr, country| {
        reader.own_page_price(
            web,
            &selector,
            domain,
            &product.slug,
            (addr, country),
            time,
            &[("sid", "424242")],
        )
    };
    let item_price = |addr, country| {
        let req = Request::get(domain, &format!("/checkout/{}", product.slug), addr, time)
            .with_cookie("sid", "424242");
        let resp = web.fetch(&req);
        if resp.status.code() != 200 {
            return None;
        }
        let doc = pd_html::parse_pooled(&resp.body);
        let cells = amount_cells.query_all(&doc);
        let first = cells.first()?;
        Locale::of_country(country)
            .parse(doc.text_content(*first).trim())
            .ok()
    };

    let (Some(pa), Some(pb)) = (
        page_price(a.addr, a.location.country),
        page_price(b.addr, b.location.country),
    ) else {
        return false;
    };
    let (Some(ia), Some(ib)) = (
        item_price(a.addr, a.location.country),
        item_price(b.addr, b.location.country),
    ) else {
        return false;
    };
    let page_differs = pd_currency::band_filter(fx, &[pa, pb], day)
        .map(|v| v.genuine)
        .unwrap_or(false);
    let item_differs = pd_currency::band_filter(fx, &[ia, ib], day)
        .map(|v| v.genuine)
        .unwrap_or(false);
    page_differs && !item_differs
}

/// Stage 3: the systematic crawl of the given `targets` (the paper's 21
/// retailers, or a crowd-ranked list when the plan sets
/// [`crate::RunPlan::targets_from_crowd`]), fanned per retailer and
/// merged in target order.
#[must_use]
pub fn crawl_stage(
    world: &World,
    config: &ExperimentConfig,
    targets: &[String],
    exec: &Executor,
    obs: &TimingObserver,
) -> CrawlArtifact {
    let crawler = Crawler::new(config.seed, config.crawl.clone());
    obs.counter(StageKind::Crawl, "retailers", targets.len() as u64);
    let shards = exec.map_indexed(targets.len(), |i| {
        crawler.crawl_one_tallied(&world.web, &world.sheriff, &targets[i])
    });
    let mut store = MeasurementStore::new();
    let mut stats = Vec::with_capacity(shards.len());
    let mut tally = CopyTally::default();
    for (shard, s, t) in shards {
        store.extend(shard);
        stats.push(s);
        tally += t;
    }
    obs.counter(
        StageKind::Crawl,
        "checks",
        stats.iter().map(|s| s.checks as u64).sum(),
    );
    obs.counter(
        StageKind::Crawl,
        "retries",
        stats.iter().map(|s| s.retries as u64).sum(),
    );
    fanout_counters(obs, StageKind::Crawl, tally);
    CrawlArtifact { store, stats }
}

/// The fixed persona/login experiment site: Boston, the day after the
/// crawl ends, noon.
fn persona_site(
    world: &World,
    config: &ExperimentConfig,
) -> (Location, std::net::Ipv4Addr, SimTime) {
    let boston = Location::new(Country::UnitedStates, "Boston");
    let boston_vp = world
        .vantage_by_label("USA - Boston")
        .expect("Boston probe exists");
    let exp_time = SimTime::from_millis(
        (config.crawl.start_day + config.crawl.days + 1) * 24 * 3_600_000 + 12 * 3_600_000,
    );
    (boston, boston_vp.addr, exp_time)
}

/// The retailers the persona experiment probes.
const PERSONA_DOMAINS: [&str; 4] = [
    "www.amazon.com",
    "www.digitalrev.com",
    "www.hotels.com",
    "www.energie.it",
];

/// Stage 4a: the Sec. 4.4 persona and login probes, holding location and
/// time fixed, plus the analysis's web probes ([`run_probes`]). Login
/// rows fan per product, persona pairs and attributions per domain. Each
/// probe family reports its fetched copies and how many of them were
/// extracted (`<family>_copies`, `<family>_extracted`): a copy
/// byte-identical to an earlier one of its scope is not parsed again.
#[must_use]
pub fn persona_stage(
    world: &World,
    config: &ExperimentConfig,
    exec: &Executor,
    obs: &TimingObserver,
) -> PersonaArtifact {
    let (boston, addr, exp_time) = persona_site(world, config);
    let slugs = personas::login_slugs(&world.web, "www.amazon.com", config.login_products);
    let (rows, tallies): (Vec<_>, Vec<_>) = exec
        .map_indexed(slugs.len(), |i| {
            let mut tally = CopyTally::default();
            let row = personas::login_row(
                &world.web,
                config.seed,
                "www.amazon.com",
                &boston,
                addr,
                exp_time,
                i,
                &slugs[i],
                &mut tally,
            );
            (row, tally)
        })
        .into_iter()
        .unzip();
    let login = LoginExperiment {
        domain: "www.amazon.com".to_owned(),
        rows,
    };
    obs.counter(
        StageKind::Personas,
        "login_products",
        login.rows.len() as u64,
    );
    copy_counters(obs, StageKind::Personas, "login", tallies.into_iter().sum());

    let (pairs, tallies): (Vec<_>, Vec<_>) = exec
        .map_indexed(PERSONA_DOMAINS.len(), |i| {
            let mut tally = CopyTally::default();
            let pair = personas::persona_pairs(
                &world.web,
                PERSONA_DOMAINS[i],
                &boston,
                addr,
                exp_time,
                config.persona_products,
                &mut tally,
            );
            (pair, tally)
        })
        .into_iter()
        .unzip();
    let (differing, total) = pairs
        .into_iter()
        .fold((0, 0), |(d, t), (pd, pt)| (d + pd, t + pt));
    let persona = PersonaExperiment {
        domains: PERSONA_DOMAINS.iter().map(|d| (*d).to_owned()).collect(),
        products_per_retailer: config.persona_products,
        differing_pairs: differing,
        total_pairs: total,
    };
    obs.counter(
        StageKind::Personas,
        "persona_pairs",
        persona.total_pairs as u64,
    );
    copy_counters(
        obs,
        StageKind::Personas,
        "persona",
        tallies.into_iter().sum(),
    );
    let probes = run_probes(world, config, exec, obs, StageKind::Personas);
    PersonaArtifact {
        login,
        persona,
        probes: Some(probes),
    }
}

/// Reports the synchronized checks' fetched copies, extracted copies and
/// extractions that resumed the parse of the copy before, under `stage`.
fn fanout_counters(obs: &TimingObserver, stage: StageKind, tally: CopyTally) {
    obs.counter(stage, "copies", tally.copies);
    obs.counter(stage, "extracted", tally.extracted);
    obs.counter(stage, "resumed", tally.resumed);
}

/// Reports a probe family's fetched copies, extracted copies and parses
/// that resumed the parse of the copy before, under `stage`.
fn copy_counters(obs: &TimingObserver, stage: StageKind, family: &str, tally: CopyTally) {
    obs.counter(stage, &format!("{family}_copies"), tally.copies);
    obs.counter(stage, &format!("{family}_extracted"), tally.extracted);
    obs.counter(stage, &format!("{family}_resumed"), tally.resumed);
}

/// The analysis's web probes: factor attribution of every paper crawl
/// target (fanned per retailer) and the third-party scan, both from the
/// persona experiment's Boston site. Reports the attributed retailers
/// and the attribution's copy counters under `stage`.
#[must_use]
pub fn run_probes(
    world: &World,
    config: &ExperimentConfig,
    exec: &Executor,
    obs: &TimingObserver,
    stage: StageKind,
) -> ProbeRecord {
    let targets = world.paper_crawl_targets();
    let products = config.analysis.attribution_products;
    let probes = probe_set(world);
    let (attribution, tallies): (Vec<_>, Vec<_>) = exec
        .map_indexed(targets.len(), |i| {
            let mut tally = CopyTally::default();
            let attribution = probes.as_ref().and_then(|probes| {
                pd_analysis::attribute(
                    &world.web,
                    probes,
                    &targets[i],
                    products,
                    probe_day(config),
                    &mut tally,
                )
            });
            (attribution, tally)
        })
        .into_iter()
        .unzip();
    let attribution: Vec<Attribution> = attribution.into_iter().flatten().collect();
    obs.counter(stage, "attributed_retailers", attribution.len() as u64);
    copy_counters(obs, stage, "attribution", tallies.into_iter().sum());
    let (_, boston, exp_time) = persona_site(world, config);
    let third_party = thirdparty::scan_third_parties(&world.web, &targets, boston, exp_time);
    ProbeRecord {
        attribution_products: products,
        attribution,
        third_party,
    }
}

/// The paper's stated future work, implemented: attribute a retailer's
/// price variation to specific request factors (country, city, session,
/// day, login) by controlled probing. Returns `None` for unknown domains
/// or when a required probe is missing from the fleet.
#[must_use]
pub fn attribute_factors(
    world: &World,
    config: &ExperimentConfig,
    domain: &str,
    products: usize,
) -> Option<Attribution> {
    pd_analysis::attribute(
        &world.web,
        &probe_set(world)?,
        domain,
        products,
        probe_day(config),
        &mut CopyTally::default(),
    )
}

/// The attribution's probe endpoints, from the vantage fleet; `None`
/// when one of them is missing.
fn probe_set(world: &World) -> Option<pd_analysis::ProbeSet> {
    let vp = |label: &str| {
        let v = world.vantage_by_label(label)?;
        Some((v.addr, v.location.clone()))
    };
    Some(pd_analysis::ProbeSet {
        us_a: vp("USA - Boston")?,
        us_b: vp("USA - Chicago")?,
        us_c: vp("USA - New York")?,
        foreign: vp("Finland - Tampere")?,
    })
}

/// The attribution's base day: two days after the crawl window.
fn probe_day(config: &ExperimentConfig) -> u64 {
    config.crawl.start_day + config.crawl.days + 2
}

/// Data-driven variant of target selection (used by the
/// `crawl_retailers` example and the crowd-value ablation): rank domains
/// by confirmed crowd variation instead of taking the paper's list.
#[must_use]
pub fn targets_from_crowd(
    world: &World,
    cleaned: &MeasurementStore,
    min_confirmed: usize,
) -> Vec<String> {
    select_targets(cleaned, world.web.fx(), min_confirmed)
        .into_iter()
        .map(|t| t.domain)
        .collect()
}

/// Where an analysis input store's rows come from: memory, or a chunked
/// binary payload on disk that is decoded one domain chunk at a time
/// (never materialized whole). Both variants yield row-identical frames
/// and summaries; only the `frames_chunks_loaded` and `chunks_decoded`
/// counters tell them apart.
#[derive(Clone, Copy)]
pub(crate) enum StoreSource<'a> {
    /// Rows already in memory.
    Memory(&'a MeasurementStore),
    /// Rows on disk under the named row section of a chunked payload.
    Chunked(&'a ChunkedPayload, &'static str),
}

impl StoreSource<'_> {
    /// The analysis frame and crawl tally for this source, through
    /// `cache` under `key`.
    fn frame(
        &self,
        cache: &StoreCache,
        key: u64,
        fx: &pd_currency::FxSeries,
        exec: &Executor,
    ) -> Result<(StoreFrame, FrameStats), StoreError> {
        match self {
            Self::Memory(store) => Ok(cache.frame_for(key, store, fx, exec)),
            Self::Chunked(payload, section) => {
                cache.frame_for_chunked(key, payload, section, fx, exec)
            }
        }
    }

    /// Feeds every row of this source to `f`, one chunk at a time for
    /// chunked sources; returns the number of chunks decoded.
    fn scan(&self, mut f: impl FnMut(&pd_sheriff::Measurement)) -> Result<usize, StoreError> {
        match self {
            Self::Memory(store) => {
                for m in store.records() {
                    f(m);
                }
                Ok(0)
            }
            Self::Chunked(payload, section) => {
                let names = payload.chunk_names(section);
                for name in &names {
                    for m in payload.read_chunk_rows::<pd_sheriff::Measurement>(section, name)? {
                        f(&m);
                    }
                }
                Ok(names.len())
            }
        }
    }
}

/// The persona artifact's stored web probes, when they were measured at
/// the plan's product count; `None` means analysis must probe the web
/// itself (a record at another count, or a store written before the
/// probes moved into the persona stage).
#[must_use]
pub(crate) fn stored_probes<'a>(
    persona_art: &'a PersonaArtifact,
    config: &ExperimentConfig,
) -> Option<&'a ProbeRecord> {
    persona_art
        .probes
        .as_ref()
        .filter(|p| p.attribution_products == config.analysis.attribution_products)
}

/// How [`analysis_over`] should obtain its frames: through a
/// [`StoreCache`] under the plan's measurement fingerprints.
pub(crate) struct FrameKeys<'a> {
    /// The shared memo.
    pub cache: &'a StoreCache,
    /// The crowd-stage fingerprint (keys the cleaned-crowd frame).
    pub crowd: u64,
    /// The crawl-stage fingerprint (keys the crawl frame).
    pub crawl: u64,
}

/// Stage 5: every figure and table, from the upstream stores (in memory
/// or streamed one domain chunk at a time off disk, see
/// [`StoreSource`]), the persona artifact and the plan's
/// [`AnalysisContext`], for [`crate::Engine::analyze`].
///
/// The web probes come from the persona artifact's [`ProbeRecord`];
/// `probe_world` is read only when there is no record measured at the
/// plan's `attribution_products`, and must then be given. The check
/// frames come from the [`StoreCache`]: built in parallel on the first
/// call, reused (`frames_built = 0`) by every later analysis on the same
/// measurement fingerprints — including `pd rerun` and sweep arms
/// sharing an upstream crawl. Each stored chunk is decoded at most
/// once: the crawl frame's tally is the summary's crawl half, and the
/// raw crowd rows are read only for the summary.
#[allow(clippy::too_many_arguments)]
pub(crate) fn analysis_over(
    ctx: &AnalysisContext,
    config: &ExperimentConfig,
    crowd_raw: StoreSource<'_>,
    crowd_clean: StoreSource<'_>,
    cleaning: CleaningReport,
    crawl_store: StoreSource<'_>,
    persona_art: &PersonaArtifact,
    probe_world: Option<&World>,
    frames: FrameKeys<'_>,
    exec: &Executor,
    obs: &TimingObserver,
) -> Result<AnalysisArtifact, StoreError> {
    let fx = &ctx.fx;
    let (crowd_frame, crowd_stats) = crowd_clean.frame(frames.cache, frames.crowd, fx, exec)?;
    let (crawl_frame, crawl_stats) = crawl_store.frame(frames.cache, frames.crawl, fx, exec)?;
    obs.counter(
        StageKind::Analysis,
        "frames_built",
        (crowd_stats.built + crawl_stats.built) as u64,
    );
    obs.counter(
        StageKind::Analysis,
        "frames_reused",
        (crowd_stats.reused + crawl_stats.reused) as u64,
    );
    obs.counter(
        StageKind::Analysis,
        "frames_chunks_loaded",
        (crowd_stats.chunks_loaded + crawl_stats.chunks_loaded) as u64,
    );
    let crowd_frame = &*crowd_frame.frame;
    let crawl_tally = &*crawl_frame.tally;
    let crawl_frame = &*crawl_frame.frame;

    // Every figure, and the Sec. 3.2 summary's scan of the raw crowd
    // rows, is a pure function of the frames and artifacts: they run
    // as independent tasks across the executor, longest first.
    let grid = |domain: &str, labels: &[&str]| Fig8Grid {
        domain: domain.to_owned(),
        cells: location::fig8_pairwise(crawl_frame, domain, &ctx.vantage_pairs(labels)),
    };
    let finland = ctx
        .vantage_by_label("Finland - Tampere")
        .expect("spec validation keeps the Finland probe");
    let (mut fig1, mut fig2) = (Vec::new(), Vec::new());
    let (mut fig3, mut fig4) = (Vec::new(), Vec::new());
    let (mut fig5_points, mut fig5_envelope) = (Vec::new(), Vec::new());
    let (mut fig6a, mut fig6b) = (Vec::new(), Vec::new());
    let mut fig7 = Vec::new();
    let (mut fig8a, mut fig8b, mut fig8c) = (None, None, None);
    let mut fig9 = None;
    let mut scan = summary::SummaryScan::new();
    let mut raw_chunks = Ok(0);
    exec.run_all(vec![
        // Fig. 7 over the full fleet.
        Box::new(|| fig7 = location::fig7_location_boxes(crawl_frame, &ctx.vantage)),
        // The summary: the raw crowd rows stream through the scan
        // (chunk by chunk for chunked sources); the crawl half is the
        // tally cut alongside the crawl frame, so the crawl is not
        // passed over twice.
        Box::new(|| raw_chunks = crowd_raw.scan(|m| scan.crowd_row(m))),
        // Fig. 8 grids.
        Box::new(|| {
            fig8a = Some(grid(
                "www.homedepot.com",
                &[
                    "USA - Albany",
                    "USA - Boston",
                    "USA - Los Angeles",
                    "USA - Chicago",
                    "USA - Lincoln",
                    "USA - New York",
                ],
            ));
        }),
        Box::new(|| {
            fig8b = Some(grid(
                "www.amazon.com",
                &[
                    "Belgium - Liege",
                    "Brazil - Sao Paulo",
                    "Finland - Tampere",
                    "Germany - Berlin",
                    "Spain (Linux,FF)",
                    "USA - New York",
                ],
            ));
        }),
        Box::new(|| {
            fig8c = Some(grid(
                "store.killah.com",
                &[
                    "Brazil - Sao Paulo",
                    "Finland - Tampere",
                    "Germany - Berlin",
                    "Spain (Linux,FF)",
                    "UK - London",
                    "USA - New York",
                ],
            ));
        }),
        // Figs. 3–5 (crawl view).
        Box::new(|| fig4 = crawl::fig4_magnitude(crawl_frame)),
        Box::new(|| (fig5_points, fig5_envelope) = crawl::fig5_scatter(crawl_frame)),
        // Fig. 9: Finland vs min.
        Box::new(|| fig9 = Some(location::fig9_finland(crawl_frame, finland))),
        Box::new(|| fig3 = crawl::fig3_extent(crawl_frame)),
        // Fig. 1 + Fig. 2 (crowd view).
        Box::new(|| {
            fig1 = crowd_figs::fig1_ranking(crowd_frame, config.analysis.fig1_domains);
            let fig1_domains: Vec<String> = fig1.iter().map(|b| b.domain.clone()).collect();
            fig2 = crowd_figs::fig2_ratio_boxes(crowd_frame, &fig1_domains);
        }),
        // Fig. 6: digitalrev (multiplicative) and energie (additive),
        // at the paper's three locations: New York, UK, Finland.
        Box::new(|| {
            let locs = ctx.vantage_pairs(&["USA - New York", "UK - London", "Finland - Tampere"]);
            fig6a = strategy::fig6_curves(crawl_frame, "www.digitalrev.com", &locs);
            fig6b = strategy::fig6_curves(crawl_frame, "www.energie.it", &locs);
        }),
    ]);
    let raw_chunks = raw_chunks?;
    scan.crawl(crawl_tally);
    let summary = scan.finish(ctx.crowd_countries);

    // Fig. 10 + persona summary, from the persona artifact.
    let fig10 = login::fig10(&persona_art.login);
    let persona = login::persona_summary(&persona_art.persona);
    obs.counter(
        StageKind::Analysis,
        "chunks_decoded",
        (crowd_stats.chunks_loaded + crawl_stats.chunks_loaded + raw_chunks) as u64,
    );

    // Third-party presence and the per-retailer factor attribution
    // (an extension): stored with the persona artifact, re-probed
    // only for a record that predates them or was measured at
    // another product count.
    let ProbeRecord {
        attribution,
        third_party,
        ..
    } = match stored_probes(persona_art, config) {
        Some(p) => p.clone(),
        None => {
            let world =
                probe_world.expect("the caller builds the world when the probes do not fit");
            run_probes(world, config, exec, obs, StageKind::Analysis)
        }
    };

    Ok(AnalysisArtifact {
        report: Report {
            summary,
            cleaning,
            fig1,
            fig2,
            fig3,
            fig4,
            fig5_points,
            fig5_envelope,
            fig6a,
            fig6b,
            fig7,
            fig8a: fig8a.expect("fig. 8a task ran"),
            fig8b: fig8b.expect("fig. 8b task ran"),
            fig8c: fig8c.expect("fig. 8c task ran"),
            fig9: fig9.expect("fig. 9 task ran"),
            fig10,
            persona,
            third_party,
            attribution,
        },
    })
}
