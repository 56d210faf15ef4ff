//! Named scenarios: the workloads the engine knows how to run.
//!
//! A scenario is a declarative [`ScenarioSpec`] (see [`crate::spec`]):
//! a base profile, typed config overrides and sweep axes that **lower**
//! into one or more [`RunPlan`]s — a full experiment configuration plus
//! the engine knobs the paper's ablations need (fan-out
//! desynchronization, skipped cleaning, a vantage subset, crowd-targeted
//! crawling). Scenarios are addressable by name through the
//! [`ScenarioRegistry`], so examples, benches, tests and the `pd` CLI
//! all pull the same workloads instead of hand-assembling configs — and
//! because scenarios are data, new campaigns come from JSON files
//! (`pd run --spec`), not new code.
//!
//! Built-in registry:
//!
//! | name | kind | what it runs |
//! |---|---|---|
//! | `paper` | single | the paper's study at the requested profile |
//! | `smoke` | single | the smallest structurally complete run (CI) |
//! | `desync-ablation` | sweep | synchronized vs 25-min-skewed fan-out |
//! | `no-cleaning` | single | the paper pipeline with Sec. 3.2 cleaning disabled |
//! | `vantage-subset` | single | an 8-probe fleet (the scale-down ablation) |
//! | `seed-sweep` | sweep | three consecutive seeds (conclusion stability) |
//! | `locale-sweep` | sweep | crowd population biased US / DE / BR |
//! | `crowd-sweep` | sweep | crowd budget at 25/50/100% of the profile |
//! | `failure-sweep` | sweep | transient fetch failures at 0/5/20% |
//! | `targeted-crawl` | single | crawl targets ranked from crowd variation |
//!
//! ```
//! use pd_core::{Profile, ScenarioParams, ScenarioRegistry};
//!
//! let registry = ScenarioRegistry::builtin();
//! let smoke = registry.get("smoke").expect("built-in scenario");
//! let params = ScenarioParams { seed: 7, profile: Profile::Smoke };
//! let variants = smoke.plan(&params).into_variants();
//! assert_eq!(variants.len(), 1, "smoke is a single run");
//! assert_eq!(variants[0].1.config.seed.value(), 7);
//! assert!(registry.get("warp-speed").is_none());
//! assert_eq!(registry.suggest("crowd-swep"), Some("crowd-sweep"));
//! ```

use crate::config::ExperimentConfig;
use crate::spec::{builtin_specs, ScenarioSpec};
use pd_net::clock::SimDuration;
use std::collections::BTreeMap;

/// The workload size a scenario is instantiated at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Profile {
    /// Sub-second CI smoke scale.
    Smoke,
    /// Test/example scale (~30× below paper).
    Small,
    /// Stable-figure scale (~5× below paper).
    Medium,
    /// The paper's full scale.
    #[default]
    Paper,
}

impl Profile {
    /// The experiment configuration for this profile.
    #[must_use]
    pub fn config(self, seed: u64) -> ExperimentConfig {
        match self {
            Profile::Smoke => ExperimentConfig::smoke(seed),
            Profile::Small => ExperimentConfig::small(seed),
            Profile::Medium => ExperimentConfig::medium(seed),
            Profile::Paper => ExperimentConfig::paper(seed),
        }
    }

    /// Parses a CLI flag value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Profile> {
        match s {
            "smoke" => Some(Profile::Smoke),
            "small" => Some(Profile::Small),
            "medium" => Some(Profile::Medium),
            "paper" | "full" => Some(Profile::Paper),
            _ => None,
        }
    }

    /// The flag spelling of this profile.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Small => "small",
            Profile::Medium => "medium",
            Profile::Paper => "paper",
        }
    }
}

/// Everything the engine needs to execute one run: the experiment
/// configuration plus the scenario-level knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// The experiment configuration.
    pub config: ExperimentConfig,
    /// Per-vantage fan-out skew (zero = the paper's synchronized checks).
    pub desync: SimDuration,
    /// Whether the Sec. 3.2 cleaning pass runs (the `no-cleaning`
    /// ablation disables it).
    pub cleaning: bool,
    /// Restrict the vantage fleet to these Fig. 7 labels (`None` = the
    /// full 14-probe fleet). Spec validation requires "USA - Boston" and
    /// "Finland - Tampere" ([`crate::spec::REQUIRED_VANTAGE_LABELS`]);
    /// the attribution extension also conditions on "USA - New York"
    /// and "USA - Chicago" and attributes nothing without them.
    pub vantage_labels: Option<Vec<String>>,
    /// Pick crawl targets from confirmed crowd variation instead of the
    /// paper's fixed 21-retailer list; the value is the minimum
    /// confirmed-variation count a domain needs to be crawled
    /// ([`crate::stage::targets_from_crowd`]).
    pub targets_from_crowd: Option<usize>,
}

impl RunPlan {
    /// The default plan for a configuration: synchronized, cleaned, full
    /// fleet, paper crawl targets — exactly the paper's methodology.
    #[must_use]
    pub fn new(config: ExperimentConfig) -> Self {
        RunPlan {
            config,
            desync: SimDuration::ZERO,
            cleaning: true,
            vantage_labels: None,
            targets_from_crowd: None,
        }
    }
}

/// Parameters a scenario is instantiated with.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioParams {
    /// Root seed.
    pub seed: u64,
    /// Workload size.
    pub profile: Profile,
}

impl Default for ScenarioParams {
    /// The paper seed (1307) at paper scale.
    fn default() -> Self {
        ScenarioParams {
            seed: pd_util::seed::EXPERIMENT_SEED.value(),
            profile: Profile::Paper,
        }
    }
}

/// What a scenario lowers to: one run, or a labeled sweep of runs meant
/// to be compared against each other.
#[derive(Debug, Clone)]
pub enum ScenarioRun {
    /// One engine run.
    Single(RunPlan),
    /// Several labeled engine runs (ablation arms, seed sweeps, …).
    Sweep(Vec<(String, RunPlan)>),
}

impl ScenarioRun {
    /// The labeled plans, with a single run labeled by the empty string.
    #[must_use]
    pub fn into_variants(self) -> Vec<(String, RunPlan)> {
        match self {
            ScenarioRun::Single(plan) => vec![(String::new(), plan)],
            ScenarioRun::Sweep(variants) => variants,
        }
    }
}

/// Name-addressable collection of [`ScenarioSpec`]s. Iteration order is
/// the sorted name order (deterministic help output).
#[derive(Clone)]
pub struct ScenarioRegistry {
    scenarios: BTreeMap<String, ScenarioSpec>,
}

impl std::fmt::Debug for ScenarioRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl Default for ScenarioRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

impl ScenarioRegistry {
    /// An empty registry.
    #[must_use]
    pub fn empty() -> Self {
        ScenarioRegistry {
            scenarios: BTreeMap::new(),
        }
    }

    /// The registry with every built-in scenario registered (see
    /// [`builtin_specs`]).
    #[must_use]
    pub fn builtin() -> Self {
        let mut reg = Self::empty();
        for spec in builtin_specs() {
            reg.register(spec);
        }
        reg
    }

    /// Registers (or replaces) a spec under its own name. The spec is
    /// validated lazily — [`ScenarioSpec::lower`] reports problems when
    /// the scenario is actually used.
    pub fn register(&mut self, spec: ScenarioSpec) {
        self.scenarios.insert(spec.name.clone(), spec);
    }

    /// Looks a scenario up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ScenarioSpec> {
        self.scenarios.get(name)
    }

    /// All registered names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.scenarios.keys().map(String::as_str).collect()
    }

    /// Iterates specs in name order.
    pub fn iter(&self) -> impl Iterator<Item = &ScenarioSpec> {
        self.scenarios.values()
    }

    /// The registered name closest to `name` by edit distance — the
    /// CLI's did-you-mean hint. `None` when nothing is plausibly close
    /// (distance greater than half the typed name, or an empty registry).
    #[must_use]
    pub fn suggest(&self, name: &str) -> Option<&str> {
        suggest_name(name, self.scenarios.keys().map(String::as_str))
    }
}

/// The candidate closest to `name` by edit distance — the generic
/// did-you-mean behind [`ScenarioRegistry::suggest`] and the spec
/// search-path errors. `None` when nothing is plausibly close (distance
/// greater than half the typed name, or no candidates).
#[must_use]
pub fn suggest_name<'a, I>(name: &str, candidates: I) -> Option<&'a str>
where
    I: IntoIterator<Item = &'a str>,
{
    let best = candidates
        .into_iter()
        .map(|candidate| (levenshtein(name, candidate), candidate))
        .min()?;
    (best.0 <= name.len().max(1).div_ceil(2)).then_some(best.1)
}

/// Classic two-row Levenshtein distance (names are short; this runs on
/// the CLI error path only).
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The skew the desync ablation applies between consecutive vantage
/// starts. 25 minutes spreads the 14-probe fan-out across the daily
/// reprice boundary — exactly the failure mode the paper's synchronized
/// checks (Sec. 2.2) are designed to prevent.
pub const DESYNC_SKEW: SimDuration = SimDuration::from_mins(25);

/// The 8-probe fleet of the `vantage-subset` scenario. Keeps every probe
/// the analysis conditions on while halving the fan-out cost.
pub const VANTAGE_SUBSET_LABELS: [&str; 8] = [
    "USA - Boston",
    "USA - New York",
    "USA - Chicago",
    "Finland - Tampere",
    "Germany - Berlin",
    "UK - London",
    "Brazil - Sao Paulo",
    "Spain (Linux,FF)",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_the_documented_scenarios() {
        let reg = ScenarioRegistry::builtin();
        assert_eq!(
            reg.names(),
            vec![
                "crowd-sweep",
                "desync-ablation",
                "failure-sweep",
                "locale-sweep",
                "no-cleaning",
                "paper",
                "seed-sweep",
                "smoke",
                "targeted-crawl",
                "vantage-subset",
            ]
        );
        assert!(reg.get("paper").is_some());
        assert!(reg.get("nope").is_none());
        for s in reg.iter() {
            assert!(!s.describe.is_empty(), "{} undocumented", s.name);
        }
    }

    #[test]
    fn registration_is_by_name_and_replaces() {
        let mut reg = ScenarioRegistry::empty();
        reg.register(ScenarioSpec::single("paper", "first"));
        reg.register(ScenarioSpec::single("paper", "second"));
        assert_eq!(reg.names(), vec!["paper"]);
        assert_eq!(reg.get("paper").expect("registered").describe, "second");
    }

    #[test]
    fn paper_scenario_tracks_profile_and_seed() {
        let reg = ScenarioRegistry::builtin();
        let run = reg.get("paper").expect("builtin").plan(&ScenarioParams {
            seed: 42,
            profile: Profile::Small,
        });
        let ScenarioRun::Single(plan) = run else {
            panic!("paper is a single run");
        };
        assert_eq!(plan.config.seed.value(), 42);
        assert_eq!(
            plan.config.crowd.checks,
            ExperimentConfig::small(42).crowd.checks
        );
        assert!(plan.cleaning);
        assert_eq!(plan.desync, SimDuration::ZERO);
        assert!(plan.vantage_labels.is_none());
        assert!(plan.targets_from_crowd.is_none());
    }

    #[test]
    fn ablation_scenarios_set_their_knobs() {
        let reg = ScenarioRegistry::builtin();
        let params = ScenarioParams {
            seed: 1,
            profile: Profile::Smoke,
        };
        let plan_of = |name: &str| reg.get(name).expect("builtin").plan(&params);

        let ScenarioRun::Sweep(arms) = plan_of("desync-ablation") else {
            panic!("desync ablation is a sweep");
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].1.desync, SimDuration::ZERO);
        assert_eq!(arms[1].1.desync, DESYNC_SKEW);

        let ScenarioRun::Single(no_clean) = plan_of("no-cleaning") else {
            panic!("no-cleaning is a single run");
        };
        assert!(!no_clean.cleaning);

        let ScenarioRun::Single(subset) = plan_of("vantage-subset") else {
            panic!("vantage-subset is a single run");
        };
        assert_eq!(subset.vantage_labels.as_ref().map(Vec::len), Some(8));

        assert_eq!(plan_of("seed-sweep").into_variants().len(), 3);
        let locales = plan_of("locale-sweep").into_variants();
        assert_eq!(locales.len(), 3);
        assert!(locales
            .iter()
            .all(|(_, p)| p.config.crowd.bias_country.is_some()));
    }

    #[test]
    fn roadmap_scenarios_lower_to_their_knobs() {
        let reg = ScenarioRegistry::builtin();
        let params = ScenarioParams {
            seed: 1,
            profile: Profile::Smoke,
        };
        let crowd = reg
            .get("crowd-sweep")
            .expect("builtin")
            .plan(&params)
            .into_variants();
        assert_eq!(crowd.len(), 3);
        assert!(
            crowd[0].1.config.crowd.checks < crowd[2].1.config.crowd.checks,
            "arms scale the crowd budget"
        );

        let failures = reg
            .get("failure-sweep")
            .expect("builtin")
            .plan(&params)
            .into_variants();
        let rates: Vec<f64> = failures
            .iter()
            .map(|(_, p)| p.config.world.failure_rate)
            .collect();
        assert_eq!(rates, vec![0.0, 0.05, 0.2]);

        let ScenarioRun::Single(targeted) =
            reg.get("targeted-crawl").expect("builtin").plan(&params)
        else {
            panic!("targeted-crawl is a single run");
        };
        assert_eq!(targeted.targets_from_crowd, Some(1));
    }

    #[test]
    fn profile_parsing_round_trips() {
        for p in [
            Profile::Smoke,
            Profile::Small,
            Profile::Medium,
            Profile::Paper,
        ] {
            assert_eq!(Profile::parse(p.name()), Some(p));
        }
        assert_eq!(Profile::parse("full"), Some(Profile::Paper));
        assert_eq!(Profile::parse("huge"), None);
    }

    #[test]
    fn suggest_finds_near_misses_only() {
        let reg = ScenarioRegistry::builtin();
        assert_eq!(reg.suggest("crowd-swep"), Some("crowd-sweep"));
        assert_eq!(reg.suggest("papr"), Some("paper"));
        assert_eq!(reg.suggest("seed-sweeep"), Some("seed-sweep"));
        assert_eq!(reg.suggest("completely-unrelated-zzz"), None);
        assert_eq!(ScenarioRegistry::empty().suggest("paper"), None);
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("paper", "paper"), 0);
    }
}
