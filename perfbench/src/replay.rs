//! Layer-by-layer replays of a finished run, for the traced runs.
//!
//! Each replay re-executes work the pipeline already did, one public
//! call at a time, timing every call into the named layer and checking
//! that it reproduces what the run stored:
//!
//! * [`crawl`] — the crawl per retailer (`Crawler::crawl_one`), per
//!   check (`Sheriff::check`), and per page fetch down to the
//!   substrate: fetch, server, quote, render, serialize, tokenize,
//!   parse, extract, band filter;
//! * [`analysis`] — per-domain frame builds and every figure function,
//!   reassembled into a report that must equal the run's.
//!
//! A replay returns how many of its checks failed; the caller counts
//! them against the operation.

use crate::metrics::Trace;
use pd_core::crawler::Crawler;
use pd_core::currency::{band_filter, FxSeries, Locale};
use pd_core::extract::HighlightExtractor;
use pd_core::html::{self, NodeId};
use pd_core::net::clock::{SimDuration, SimTime};
use pd_core::net::geo::{Country, Location};
use pd_core::net::latency::LatencyModel;
use pd_core::pricing::quote::{LoginState, QuoteContext};
use pd_core::report::Fig8Grid;
use pd_core::sheriff::cleaning::CleaningReport;
use pd_core::sheriff::{MeasurementStore, PriceObservation};
use pd_core::util::ProductId;
use pd_core::web::template::{price_selector, render, RenderInput};
use pd_core::web::{Request, RetailerServer};
use pd_core::{analysis as figs, CrawlArtifact, ExperimentConfig, PersonaArtifact, Report, World};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const DAY_MS: u64 = 24 * 3_600_000;

/// Replays the crawl of `targets` that produced `artifact`. Returns the
/// number of fidelity failures: retailer shards, checks, served bodies,
/// rebuilt pages or extracted observations that differ from the run's.
pub fn crawl(
    world: &World,
    config: &ExperimentConfig,
    targets: &[String],
    artifact: &CrawlArtifact,
    trace: &mut Trace,
) -> u64 {
    let mut failures = 0;

    // Layer 1: one retailer at a time, exactly as a 1-thread crawl.
    let crawler = Crawler::new(config.seed, config.crawl.clone());
    let mut merged = MeasurementStore::new();
    for target in targets {
        let (shard, _) = trace.time("crawl.retailer", || {
            crawler.crawl_one(&world.web, &world.sheriff, target)
        });
        merged.extend(shard);
    }
    if merged.records() != artifact.store.records() {
        eprintln!("replay: serial per-retailer crawl differs from the run's crawl store");
        failures += 1;
    }

    // Layers 2 and 3: every stored check, then every page of it.
    let web = &world.web;
    let fx = web.fx();
    let latency = LatencyModel::new(config.seed);
    let vantages = world.sheriff.vantage_points();
    let mut extractors: HashMap<&str, Option<HighlightExtractor>> = HashMap::new();
    for target in targets {
        let extractor = reference_highlight(world, config, target, trace);
        extractors.insert(target.as_str(), extractor);
    }
    let (mut attempted, mut extracted) = (0u64, 0u64);
    for m in artifact.store.records() {
        let Some(Some(extractor)) = extractors.get(m.domain.as_str()) else {
            eprintln!("replay: no reference highlight for {}", m.domain);
            failures += 1;
            continue;
        };
        let Some(server) = web.server_by_domain(&m.domain) else {
            failures += 1;
            continue;
        };
        let path = format!("/product/{}", m.product_slug);
        let checked = trace.time("crawl.check", || {
            world
                .sheriff
                .check(web, &m.domain, &path, extractor, m.time, &[])
        });
        if checked != m.observations {
            eprintln!(
                "replay: check of {}{path} differs from the stored one",
                m.domain
            );
            failures += 1;
        }

        for (vp, stored) in vantages.iter().zip(&m.observations) {
            let arrive = m.time
                + SimDuration::from_millis(
                    latency.one_way_ms(vp.location.country, Country::UnitedStates),
                );
            let req = Request::get(&m.domain, &path, vp.addr, arrive)
                .with_header("user-agent", &vp.platform.user_agent());
            let resp = trace.time("crawl.fetch", || web.fetch(&req));
            trace.add("crawl.page_bytes", resp.body.len() as f64);
            let location = web.resolve_client(vp.addr);
            let served = trace.time("crawl.server", || {
                server.handle(&req, location.as_ref(), fx)
            });
            if served.body != resp.body {
                failures += 1;
            }
            if rebuild_page(config, server, &req, location, fx, trace).as_deref()
                != Some(resp.body.as_str())
            {
                eprintln!(
                    "replay: rebuilt render input for {}{path} does not reproduce the page",
                    m.domain
                );
                failures += 1;
            }
            attempted += 1;
            let observation = if resp.status.code() == 200 {
                black_box(trace.time("crawl.tokenize", || html::token::tokenize(&resp.body)));
                let doc = trace.time("crawl.parse", || html::parse(&resp.body));
                let hint = Locale::of_country(vp.location.country);
                match trace.time("crawl.extract", || extractor.extract(&doc, Some(hint))) {
                    Ok(ex) => {
                        extracted += 1;
                        PriceObservation::ok(vp.id, ex.price, ex.raw_text)
                    }
                    Err(e) => PriceObservation::failed(vp.id, e.to_string()),
                }
            } else {
                PriceObservation::failed(vp.id, format!("http {}", resp.status.code()))
            };
            if &observation != stored {
                failures += 1;
            }
        }
        let day = m.day().min(fx.days().saturating_sub(1));
        let prices = m.prices();
        black_box(trace.time("crawl.band_filter", || band_filter(fx, &prices, day)));
    }
    trace.add("crawl.observed", attempted as f64);
    trace.add("crawl.extracted", extracted as f64);
    failures
}

/// The crawler's per-retailer reference highlight, replayed: the first
/// sampled product fetched from the first vantage point at the start
/// of the crawl (one fetch + parse per retailer, part of the crawl).
fn reference_highlight(
    world: &World,
    config: &ExperimentConfig,
    domain: &str,
    trace: &mut Trace,
) -> Option<HighlightExtractor> {
    let server = world.web.server_by_domain(domain)?;
    let catalog = server.catalog();
    let sample = catalog.sample(
        config.seed.derive("crawler").derive(domain),
        config.crawl.products_per_retailer,
    );
    let product = catalog.product(*sample.first()?);
    let vp = world.sheriff.vantage_points().first()?;
    let req = Request::get(
        domain,
        &format!("/product/{}", product.slug),
        vp.addr,
        SimTime::from_millis(config.crawl.start_day * DAY_MS),
    );
    let resp = trace.time("crawl.fetch", || world.web.fetch(&req));
    trace.add("crawl.page_bytes", resp.body.len() as f64);
    if resp.status.code() != 200 {
        return None;
    }
    black_box(trace.time("crawl.tokenize", || html::token::tokenize(&resp.body)));
    let doc = trace.time("crawl.parse", || html::parse(&resp.body));
    HighlightExtractor::from_highlight(&doc, &price_selector(server.spec().template_style))
}

/// Rebuilds the product page a retailer served for `req` from the
/// retailer's public parts — quote context, pricing engine, localized
/// price texts, [`RenderInput`] — timing the quote, render and
/// serialize layers. `None` for anything but a product page.
fn rebuild_page(
    config: &ExperimentConfig,
    server: &RetailerServer,
    req: &Request,
    location: Option<Location>,
    fx: &FxSeries,
    trace: &mut Trace,
) -> Option<String> {
    let spec = server.spec();
    let catalog = server.catalog();
    let product = catalog.by_slug(req.path.strip_prefix("/product/")?)?;
    let location = location.unwrap_or_else(|| Location::new(Country::UnitedStates, "Unknown"));
    let country = location.country;
    // No `sid` cookie on crawl fetches: the server derives the session
    // from client address and time, keyed by its per-retailer seed.
    let session = config
        .seed
        .derive("retailer")
        .derive(&spec.domain)
        .derive("session")
        .derive_idx(u64::from(u32::from(req.client_addr)))
        .derive_idx(req.time.as_millis())
        .value();
    let ctx = QuoteContext::anonymous(location, req.time)
        .with_login(LoginState::Anonymous)
        .with_session(session);
    let locale = Locale::of_country(country);
    let day = ctx.day.min(fx.days().saturating_sub(1));

    let mut usd = trace.time("crawl.quote", || server.engine().quote(product, &ctx));
    if spec.inlines_tax {
        usd = usd.scale(1.0 + pd_core::web::server::tax_rate(country));
    }
    let local = |usd| pd_core::web::convert::usd_to_local(fx, usd, locale.currency, day);
    let price_text = locale.format_price(local(usd));
    let mut recommended = Vec::with_capacity(3);
    for k in 1..=3 {
        let idx = (product.id.index() + k) % catalog.len();
        let rp = catalog.product(ProductId::new(u32::try_from(idx).ok()?));
        let rusd = trace.time("crawl.quote", || server.engine().quote(rp, &ctx));
        recommended.push((rp.name.clone(), locale.format_price(local(rusd))));
    }
    let input = RenderInput {
        domain: &spec.domain,
        product_name: &product.name,
        price_text,
        recommended,
        third_parties: &spec.third_parties,
        promo_text: "Save $10 on orders over $100 today!".to_owned(),
    };
    let doc = trace.time("crawl.render", || render(spec.template_style, &input));
    Some(trace.time("crawl.serialize", || doc.to_html(NodeId::ROOT)))
}

/// Replays the analysis stage over in-memory stores: per-domain frame
/// builds, then every figure function, reassembled into a report.
#[allow(clippy::too_many_arguments)]
pub fn analysis(
    world: &World,
    config: &ExperimentConfig,
    crowd_raw: &MeasurementStore,
    crowd_clean: &MeasurementStore,
    cleaning: CleaningReport,
    crawl_store: &MeasurementStore,
    personas: &PersonaArtifact,
    trace: &mut Trace,
) -> Report {
    let fx = world.web.fx();
    let crowd_frame = frame(crowd_clean, fx, trace);
    let crawl_frame = frame(crawl_store, fx, trace);
    let vp = |label: &str| world.vantage_by_label(label).expect("paper vantage fleet");
    let pick =
        |labels: &[&str]| -> Vec<_> { labels.iter().map(|l| (vp(l).id, vp(l).label())).collect() };
    let labels = world.vantage_labels();
    let targets = world.paper_crawl_targets();
    let exp_time = SimTime::from_millis(
        (config.crawl.start_day + config.crawl.days + 1) * DAY_MS + 12 * 3_600_000,
    );
    let t = "analysis.figures";

    let fig1 = trace.time(t, || {
        figs::crowd::fig1_ranking(&crowd_frame, config.analysis.fig1_domains)
    });
    let fig1_domains: Vec<String> = fig1.iter().map(|b| b.domain.clone()).collect();
    let fig2 = trace.time(t, || {
        figs::crowd::fig2_ratio_boxes(&crowd_frame, &fig1_domains)
    });
    let fig3 = trace.time(t, || figs::crawl::fig3_extent(&crawl_frame));
    let fig4 = trace.time(t, || figs::crawl::fig4_magnitude(&crawl_frame));
    let (fig5_points, fig5_envelope) = trace.time(t, || figs::crawl::fig5_scatter(&crawl_frame));
    let fig6_locs = pick(&["USA - New York", "UK - London", "Finland - Tampere"]);
    let fig6a = trace.time(t, || {
        figs::strategy::fig6_curves(&crawl_frame, "www.digitalrev.com", &fig6_locs)
    });
    let fig6b = trace.time(t, || {
        figs::strategy::fig6_curves(&crawl_frame, "www.energie.it", &fig6_locs)
    });
    let fig7 = trace.time(t, || {
        figs::location::fig7_location_boxes(&crawl_frame, &labels)
    });
    let mut grid = |domain: &str, labels: &[&str]| {
        let vps = pick(labels);
        Fig8Grid {
            domain: domain.to_owned(),
            cells: trace.time(t, || {
                figs::location::fig8_pairwise(&crawl_frame, domain, &vps)
            }),
        }
    };
    let fig8a = grid(
        "www.homedepot.com",
        &[
            "USA - Albany",
            "USA - Boston",
            "USA - Los Angeles",
            "USA - Chicago",
            "USA - Lincoln",
            "USA - New York",
        ],
    );
    let fig8b = grid(
        "www.amazon.com",
        &[
            "Belgium - Liege",
            "Brazil - Sao Paulo",
            "Finland - Tampere",
            "Germany - Berlin",
            "Spain (Linux,FF)",
            "USA - New York",
        ],
    );
    let fig8c = grid(
        "store.killah.com",
        &[
            "Brazil - Sao Paulo",
            "Finland - Tampere",
            "Germany - Berlin",
            "Spain (Linux,FF)",
            "UK - London",
            "USA - New York",
        ],
    );
    let finland = vp("Finland - Tampere").id;
    let fig9 = trace.time(t, || figs::location::fig9_finland(&crawl_frame, finland));
    let fig10 = trace.time(t, || figs::login::fig10(&personas.login));
    let persona = trace.time(t, || figs::login::persona_summary(&personas.persona));
    let boston = vp("USA - Boston").addr;
    let third_party = trace.time(t, || {
        figs::thirdparty::scan_third_parties(&world.web, &targets, boston, exp_time)
    });
    let summary = trace.time(t, || {
        figs::summary::dataset_summary(&world.crowd, crowd_raw, crawl_store)
    });
    let mut attribution = Vec::new();
    for target in &targets {
        let a = trace.time(t, || {
            pd_core::stage::attribute_factors(
                world,
                config,
                target,
                config.analysis.attribution_products,
            )
        });
        attribution.extend(a);
    }
    Report {
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
        fig8a,
        fig8b,
        fig8c,
        fig9,
        fig10,
        persona,
        third_party,
        attribution,
    }
}

/// One store's analysis frame: a `CheckFrame::build_domain` call per
/// domain (each timed as one `analysis.frame_build` call), merged in
/// store order (its time added to the same layer).
fn frame(store: &MeasurementStore, fx: &FxSeries, trace: &mut Trace) -> figs::CheckFrame {
    let shards: Vec<figs::CheckFrame> = store
        .domains()
        .iter()
        .map(|d| {
            trace.time("analysis.frame_build", || {
                figs::CheckFrame::build_domain(store, fx, d)
            })
        })
        .collect();
    let start = Instant::now();
    let frame = figs::CheckFrame::merge_shards(&shards);
    trace.add_time("analysis.frame_build", start.elapsed());
    frame
}
