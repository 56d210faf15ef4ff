//! Experiment configuration.

use pd_crawler::CrawlConfig;
use pd_sheriff::CrowdConfig;
use pd_util::Seed;
use serde::{Deserialize, Serialize};

/// Knobs that shape only the analysis stage — never the measured data.
///
/// Changing an analysis knob re-derives figures from the same crowd,
/// crawl and persona artifacts, which is why the artifact store's
/// measurement-stage fingerprints exclude this section (see
/// [`crate::store`]): `pd rerun DIR --set analysis.fig1_domains=10`
/// reuses a stored crawl instead of re-measuring it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// How many top-variation domains Fig. 1 ranks (paper: 27).
    pub fig1_domains: usize,
    /// Products probed per retailer by the factor-attribution extension.
    /// The persona stage probes at this count and stores the result; an
    /// analysis at another count (`pd rerun DIR --set
    /// analysis.attribution_products=N`) re-probes, so the knob stays
    /// out of the measurement fingerprints.
    pub attribution_products: usize,
}

impl Default for AnalysisConfig {
    /// The paper's figure parameters: 27 Fig. 1 domains, 8 attribution
    /// products per retailer.
    fn default() -> Self {
        AnalysisConfig {
            fig1_domains: 27,
            attribution_products: 8,
        }
    }
}

/// Knobs of the simulated web itself (as opposed to the campaigns run
/// against it). Spec-addressable and part of every measurement
/// fingerprint: changing the world invalidates stored artifacts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Transient fetch-failure probability per request, in `[0, 1]`
    /// (plumbs [`pd_web::WebWorld::set_failure_rate`]). Failures are
    /// deterministic in (client, uri, second) — the same requests drop
    /// at any thread count — and clear on retry, which is what the
    /// crawler's retry logic and the `failure-sweep` scenario exercise.
    pub failure_rate: f64,
}

impl Default for WorldConfig {
    /// A reliable web: no injected failures.
    fn default() -> Self {
        WorldConfig { failure_rate: 0.0 }
    }
}

/// Full configuration of one reproduction run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Root seed; every stochastic component derives from it.
    pub seed: Seed,
    /// Simulated-web parameters (failure injection).
    pub world: WorldConfig,
    /// Crowd-phase parameters.
    pub crowd: CrowdConfig,
    /// Crawl-phase parameters.
    pub crawl: CrawlConfig,
    /// Long-tail domains beyond the 30 named retailers. 800 fillers give
    /// the crowd room to *reach* ~600 distinct domains in 1500 checks
    /// (the paper reports 600 domains checked).
    pub filler_domains: usize,
    /// FX-series horizon in days (must cover crowd window + crawl week).
    pub fx_days: usize,
    /// Products in the Fig. 10 login experiment.
    pub login_products: usize,
    /// Products per retailer in the persona experiment.
    pub persona_products: usize,
    /// Analysis-stage knobs (figure parameters; never affect measurement).
    pub analysis: AnalysisConfig,
}

impl ExperimentConfig {
    /// The paper-scale configuration: 340 users, 1 500 checks over 151
    /// days, 570 filler domains (600 total), 21-retailer crawl with ≤100
    /// products × 7 days, 40-ebook login experiment.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        ExperimentConfig {
            seed: Seed::new(seed),
            world: WorldConfig::default(),
            crowd: CrowdConfig::default(),
            crawl: CrawlConfig::default(),
            filler_domains: 800,
            fx_days: 160,
            login_products: 40,
            persona_products: 20,
            analysis: AnalysisConfig::default(),
        }
    }

    /// A mid-size configuration: large enough for stable figure shapes,
    /// ~5× cheaper than the paper scale (the bench crate's `medium`).
    #[must_use]
    pub fn medium(seed: u64) -> Self {
        ExperimentConfig {
            crowd: CrowdConfig {
                users: 120,
                checks: 400,
                ..CrowdConfig::default()
            },
            crawl: CrawlConfig {
                products_per_retailer: 30,
                days: 3,
                ..CrawlConfig::default()
            },
            filler_domains: 150,
            ..Self::paper(seed)
        }
    }

    /// A scaled-down configuration for tests and examples: same
    /// structure, ~30× less work.
    #[must_use]
    pub fn small(seed: u64) -> Self {
        ExperimentConfig {
            seed: Seed::new(seed),
            world: WorldConfig::default(),
            crowd: CrowdConfig {
                users: 60,
                checks: 150,
                window_days: 40,
                ..CrowdConfig::default()
            },
            crawl: CrawlConfig {
                products_per_retailer: 12,
                days: 3,
                start_day: 45,
                ..CrawlConfig::default()
            },
            filler_domains: 60,
            fx_days: 60,
            login_products: 15,
            persona_products: 8,
            analysis: AnalysisConfig::default(),
        }
    }
}

impl ExperimentConfig {
    /// The smallest structurally complete configuration: CI smoke runs
    /// in well under a second while still exercising every stage.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        ExperimentConfig {
            seed: Seed::new(seed),
            world: WorldConfig::default(),
            crowd: CrowdConfig {
                users: 30,
                checks: 60,
                window_days: 30,
                ..CrowdConfig::default()
            },
            crawl: CrawlConfig {
                products_per_retailer: 6,
                days: 2,
                start_day: 35,
                ..CrawlConfig::default()
            },
            filler_domains: 30,
            fx_days: 60,
            login_products: 8,
            persona_products: 4,
            analysis: AnalysisConfig::default(),
        }
    }
}

impl Default for ExperimentConfig {
    /// Defaults to the paper scale with the experiment seed 1307.
    fn default() -> Self {
        Self::paper(pd_util::seed::EXPERIMENT_SEED.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_paper_numbers() {
        let c = ExperimentConfig::default();
        assert_eq!(c.seed.value(), 1307);
        assert_eq!(c.crowd.users, 340);
        assert_eq!(c.crowd.checks, 1_500);
        assert_eq!(c.crowd.window_days, 151);
        assert_eq!(c.crawl.products_per_retailer, 100);
        assert_eq!(c.crawl.days, 7);
        assert_eq!(c.filler_domains, 800);
        assert_eq!(c.login_products, 40);
    }

    #[test]
    fn small_is_structurally_complete() {
        let c = ExperimentConfig::small(1);
        assert!(c.crowd.checks > 0);
        assert!(c.crawl.products_per_retailer > 0);
        assert!(c.fx_days as u64 > c.crawl.start_day + c.crawl.days);
    }

    #[test]
    fn smoke_and_medium_are_structurally_complete_and_ordered() {
        for c in [ExperimentConfig::smoke(1), ExperimentConfig::medium(1)] {
            assert!(c.crowd.checks > 0);
            assert!(c.fx_days as u64 > c.crawl.start_day + c.crawl.days);
        }
        let smoke = ExperimentConfig::smoke(1);
        let small = ExperimentConfig::small(1);
        let medium = ExperimentConfig::medium(1);
        let paper = ExperimentConfig::paper(1);
        assert!(smoke.crowd.checks < small.crowd.checks);
        assert!(small.crowd.checks < medium.crowd.checks);
        assert!(medium.crowd.checks < paper.crowd.checks);
        assert!(medium.crawl.products_per_retailer < paper.crawl.products_per_retailer);
    }

    #[test]
    fn analysis_knobs_default_to_the_paper_figures() {
        let c = ExperimentConfig::default();
        assert_eq!(c.analysis.fig1_domains, 27);
        assert_eq!(c.analysis.attribution_products, 8);
        // Every profile shares the same analysis defaults: the knobs are
        // figure parameters, not workload scale.
        assert_eq!(ExperimentConfig::smoke(1).analysis, c.analysis);
        assert_eq!(ExperimentConfig::medium(1).analysis, c.analysis);
    }

    #[test]
    fn config_serializes() {
        let c = ExperimentConfig::small(7);
        let json = serde_json::to_string(&c).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seed, c.seed);
        assert_eq!(back.crowd.checks, c.crowd.checks);
    }
}
