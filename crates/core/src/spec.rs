//! Declarative scenario specs: experiments as data.
//!
//! A [`ScenarioSpec`] is a serde-serializable *value* describing a
//! measurement campaign: a base [`Profile`], a typed [`ConfigPatch`] of
//! overrides, and a list of [`SweepAxis`] values whose arms expand into
//! the cross product of labeled runs. Specs **lower** to the same
//! [`RunPlan`]s/[`ScenarioRun`]s the engine has always executed, so a
//! spec run is byte-identical to the equivalent hand-written scenario —
//! but a new campaign is a JSON file (`pd run --spec FILE.json`) or a
//! few struct fields, not a new trait impl and a recompile.
//!
//! Every built-in scenario of the [`crate::ScenarioRegistry`] is itself
//! a spec ([`builtin_specs`]); `pd scenarios show NAME --json` dumps any
//! of them as an editable starting point, and the artifact store records
//! the exact producing spec in its manifest (see [`crate::store`]).
//!
//! ```
//! use pd_core::spec::{ConfigPatch, ScenarioSpec, SweepAxis};
//! use pd_core::{Profile, ScenarioParams};
//!
//! // A two-arm failure-rate sweep, declared as data.
//! let spec = ScenarioSpec {
//!     name: "my-failure-sweep".to_owned(),
//!     describe: "clean vs 10% transient failures".to_owned(),
//!     base: None, // run at whatever profile the caller requests
//!     patch: ConfigPatch::default(),
//!     sweep: vec![SweepAxis::FailureRates {
//!         arms: vec![
//!             pd_core::spec::FailureRateArm { label: "clean".into(), rate: 0.0 },
//!             pd_core::spec::FailureRateArm { label: "fail-10pct".into(), rate: 0.1 },
//!         ],
//!     }],
//! };
//! let params = ScenarioParams { seed: 7, profile: Profile::Smoke };
//! let arms = spec.lower(&params).expect("valid spec").into_variants();
//! assert_eq!(arms.len(), 2);
//! assert_eq!(arms[1].0, "fail-10pct");
//! assert_eq!(arms[1].1.config.world.failure_rate, 0.1);
//!
//! // Specs round-trip through JSON with an identical fingerprint.
//! let json = spec.to_json_pretty();
//! let back = ScenarioSpec::from_json(&json).expect("parses");
//! assert_eq!(back.fingerprint(), spec.fingerprint());
//! ```

use crate::scenario::{
    suggest_name, Profile, RunPlan, ScenarioParams, ScenarioRun, DESYNC_SKEW, VANTAGE_SUBSET_LABELS,
};
use pd_net::clock::SimDuration;
use pd_net::geo::Country;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// A declarative, serializable scenario: base profile, typed overrides
/// and sweep axes. See the [module docs](self) for the model and a
/// worked example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Registry key (kebab-case).
    pub name: String,
    /// One-line description for `pd --help` and the README table.
    pub describe: String,
    /// Pinned workload profile (`"smoke"`/`"small"`/`"medium"`/`"paper"`).
    /// `None` runs at whatever profile the caller requests — most specs
    /// want `None` so `--profile` keeps working.
    pub base: Option<String>,
    /// Overrides applied on top of the base profile's configuration
    /// (and the plan's engine knobs) before any sweep axis expands.
    pub patch: ConfigPatch,
    /// Sweep axes; the arms of consecutive axes combine as a cross
    /// product. Empty = a single run.
    pub sweep: Vec<SweepAxis>,
}

/// Typed overrides a spec applies to a [`RunPlan`]. Every field is
/// optional; `None` keeps the base profile's value, so serialized specs
/// only mention what they change. The same struct backs the CLI's
/// `--set key=value` flags ([`ConfigPatch::set`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConfigPatch {
    /// Root seed (wins over the requested seed).
    pub seed: Option<u64>,
    /// Crowd size ($heriff users).
    pub users: Option<usize>,
    /// Crowd checks issued over the window.
    pub checks: Option<usize>,
    /// Crowd collection window, days.
    pub window_days: Option<u64>,
    /// Bias the crowd population toward one country (the locale sweeps).
    pub bias_country: Option<Country>,
    /// Products crawled per retailer.
    pub products_per_retailer: Option<usize>,
    /// Consecutive crawl days.
    pub crawl_days: Option<u64>,
    /// First crawl day (simulation day index).
    pub crawl_start_day: Option<u64>,
    /// Long-tail domains beyond the 30 named retailers.
    pub filler_domains: Option<usize>,
    /// Transient fetch-failure probability in `[0, 1]`
    /// ([`crate::config::WorldConfig::failure_rate`]).
    pub failure_rate: Option<f64>,
    /// Products in the Fig. 10 login experiment.
    pub login_products: Option<usize>,
    /// Products per retailer in the persona experiment.
    pub persona_products: Option<usize>,
    /// Domains ranked by Fig. 1 (analysis-only knob).
    pub fig1_domains: Option<usize>,
    /// Products probed per retailer by the attribution extension
    /// (analysis-only knob).
    pub attribution_products: Option<usize>,
    /// Per-vantage fan-out skew, minutes (the desync ablation).
    pub desync_mins: Option<u64>,
    /// Disable the Sec. 3.2 cleaning pass.
    pub skip_cleaning: Option<bool>,
    /// Restrict the vantage fleet to these Fig. 7 labels.
    pub vantage_labels: Option<Vec<String>>,
    /// Pick crawl targets from confirmed crowd variation (the value is
    /// the minimum confirmed-variation count) instead of the paper's
    /// fixed 21-retailer list.
    pub targets_from_crowd: Option<usize>,
}

/// One sweep dimension of a [`ScenarioSpec`]. Each axis expands into
/// labeled arms; multiple axes cross-product (labels join with `/`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepAxis {
    /// `count` consecutive seeds starting at the run's base seed, each
    /// arm labeled `seed-<seed>` (the classic conclusion-stability sweep).
    Seeds {
        /// How many consecutive seeds to run (≥ 1).
        count: u64,
    },
    /// Crowd population biased toward each arm's country.
    Locales {
        /// The labeled countries.
        arms: Vec<LocaleArm>,
    },
    /// Crowd budget scaled per arm (users *and* checks, as a percentage
    /// of the base profile's scale — profile-portable by construction).
    CrowdSizes {
        /// The labeled scale factors.
        arms: Vec<CrowdSizeArm>,
    },
    /// Transient fetch-failure rate per arm.
    FailureRates {
        /// The labeled rates.
        arms: Vec<FailureRateArm>,
    },
    /// Fan-out desynchronization skew per arm, minutes.
    DesyncMins {
        /// The labeled skews.
        arms: Vec<DesyncArm>,
    },
    /// Vantage fleet per arm.
    VantageSubsets {
        /// The labeled fleets.
        arms: Vec<VantageArm>,
    },
}

/// One arm of [`SweepAxis::Locales`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocaleArm {
    /// Arm label.
    pub label: String,
    /// The country whose crowd weight is boosted.
    pub country: Country,
}

/// One arm of [`SweepAxis::CrowdSizes`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrowdSizeArm {
    /// Arm label.
    pub label: String,
    /// Percentage of the base profile's crowd scale (users and checks),
    /// `100` = unchanged. Results are clamped to at least 1.
    pub scale_pct: u64,
}

/// One arm of [`SweepAxis::FailureRates`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRateArm {
    /// Arm label.
    pub label: String,
    /// Transient fetch-failure probability in `[0, 1]`.
    pub rate: f64,
}

/// One arm of [`SweepAxis::DesyncMins`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesyncArm {
    /// Arm label.
    pub label: String,
    /// Per-vantage start skew, minutes (0 = the paper's synchronized
    /// fan-out).
    pub mins: u64,
}

/// One arm of [`SweepAxis::VantageSubsets`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VantageArm {
    /// Arm label.
    pub label: String,
    /// The Fig. 7 labels of the fleet this arm runs on.
    pub labels: Vec<String>,
}

/// Why a spec failed validation (and therefore cannot lower).
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec's `name` is empty.
    EmptyName,
    /// The pinned `base` profile is not a known profile name.
    UnknownProfile(String),
    /// A sweep axis has no arms (or `Seeds { count: 0 }`).
    EmptyAxis(&'static str),
    /// An arm label is empty, or repeats within its axis.
    BadLabel {
        /// The axis the label belongs to.
        axis: &'static str,
        /// The offending label (empty string = missing).
        label: String,
    },
    /// A failure rate is outside `[0, 1]`.
    RateOutOfRange(f64),
    /// A vantage-subset arm lists no probes.
    EmptyVantageSubset(String),
    /// A vantage subset names a probe the paper's fleet does not have.
    UnknownVantage(String),
    /// A vantage subset omits a probe the pipeline cannot run without
    /// ([`REQUIRED_VANTAGE_LABELS`]).
    MissingVantage(String),
}

/// The probes every vantage subset must keep: the persona and web-probe
/// site (`USA - Boston`) and Fig. 9's reference probe
/// (`Finland - Tampere`).
pub const REQUIRED_VANTAGE_LABELS: [&str; 2] = ["USA - Boston", "Finland - Tampere"];

/// A vantage subset must name only paper probes and keep the
/// [`REQUIRED_VANTAGE_LABELS`].
fn validate_vantage_subset(labels: &[String]) -> Result<(), SpecError> {
    let fleet: Vec<String> =
        pd_net::vantage::paper_vantage_points(&mut pd_net::ip::IpAllocator::new())
            .iter()
            .map(pd_net::vantage::VantagePoint::label)
            .collect();
    if let Some(unknown) = labels.iter().find(|l| !fleet.contains(l)) {
        return Err(SpecError::UnknownVantage(unknown.clone()));
    }
    if let Some(missing) = REQUIRED_VANTAGE_LABELS
        .iter()
        .find(|r| !labels.iter().any(|l| l == *r))
    {
        return Err(SpecError::MissingVantage((*missing).to_owned()));
    }
    Ok(())
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyName => f.write_str("spec has an empty name"),
            SpecError::UnknownProfile(p) => write!(
                f,
                "unknown base profile {p:?} (expected smoke, small, medium or paper)"
            ),
            SpecError::EmptyAxis(axis) => write!(f, "sweep axis {axis} has no arms"),
            SpecError::BadLabel { axis, label } if label.is_empty() => {
                write!(f, "sweep axis {axis} has an arm with an empty label")
            }
            SpecError::BadLabel { axis, label } => {
                write!(f, "sweep axis {axis} repeats the arm label {label:?}")
            }
            SpecError::RateOutOfRange(rate) => {
                write!(f, "failure rate {rate} is outside [0, 1]")
            }
            SpecError::EmptyVantageSubset(label) => {
                write!(f, "vantage-subset arm {label:?} lists no probes")
            }
            SpecError::UnknownVantage(label) => {
                write!(f, "vantage subset names unknown probe {label:?}")
            }
            SpecError::MissingVantage(label) => write!(
                f,
                "vantage subset omits {label:?}, which the pipeline requires"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

impl ConfigPatch {
    /// Applies the patch to a plan: config fields first, then the
    /// engine knobs. `None` fields leave the plan untouched.
    pub fn apply(&self, plan: &mut RunPlan) {
        if let Some(seed) = self.seed {
            plan.config.seed = pd_util::Seed::new(seed);
        }
        if let Some(users) = self.users {
            plan.config.crowd.users = users;
        }
        if let Some(checks) = self.checks {
            plan.config.crowd.checks = checks;
        }
        if let Some(days) = self.window_days {
            plan.config.crowd.window_days = days;
        }
        if let Some(country) = self.bias_country {
            plan.config.crowd.bias_country = Some(country);
        }
        if let Some(n) = self.products_per_retailer {
            plan.config.crawl.products_per_retailer = n;
        }
        if let Some(days) = self.crawl_days {
            plan.config.crawl.days = days;
        }
        if let Some(day) = self.crawl_start_day {
            plan.config.crawl.start_day = day;
        }
        if let Some(n) = self.filler_domains {
            plan.config.filler_domains = n;
        }
        if let Some(rate) = self.failure_rate {
            plan.config.world.failure_rate = rate;
        }
        if let Some(n) = self.login_products {
            plan.config.login_products = n;
        }
        if let Some(n) = self.persona_products {
            plan.config.persona_products = n;
        }
        if let Some(n) = self.fig1_domains {
            plan.config.analysis.fig1_domains = n;
        }
        if let Some(n) = self.attribution_products {
            plan.config.analysis.attribution_products = n;
        }
        if let Some(mins) = self.desync_mins {
            plan.desync = SimDuration::from_mins(mins);
        }
        if let Some(skip) = self.skip_cleaning {
            plan.cleaning = !skip;
        }
        if let Some(labels) = &self.vantage_labels {
            plan.vantage_labels = Some(labels.clone());
        }
        if let Some(min) = self.targets_from_crowd {
            plan.targets_from_crowd = Some(min);
        }
    }

    /// Merges `other` into `self`; `other`'s `Some` fields win (the
    /// CLI layers `--set` overrides onto a spec's own patch this way).
    pub fn merge(&mut self, other: &ConfigPatch) {
        macro_rules! take {
            ($($field:ident),* $(,)?) => {
                $(if other.$field.is_some() {
                    self.$field = other.$field.clone();
                })*
            };
        }
        take!(
            seed,
            users,
            checks,
            window_days,
            bias_country,
            products_per_retailer,
            crawl_days,
            crawl_start_day,
            filler_domains,
            failure_rate,
            login_products,
            persona_products,
            fig1_domains,
            attribution_products,
            desync_mins,
            skip_cleaning,
            vantage_labels,
            targets_from_crowd,
        );
    }

    /// Sets one field from a `key=value` pair (the CLI's `--set`). Keys
    /// mirror the config structure (`crowd.users`, `crawl.days`,
    /// `world.failure_rate`, `analysis.fig1_domains`, …) with the plan
    /// knobs flat (`desync_mins`, `skip_cleaning`, `vantage_labels`,
    /// `targets_from_crowd`).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the unknown key or the value that
    /// failed to parse.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("--set {key}: bad value {value:?}"))
        }
        match key {
            "seed" => self.seed = Some(num(key, value)?),
            "crowd.users" => self.users = Some(num(key, value)?),
            "crowd.checks" => self.checks = Some(num(key, value)?),
            "crowd.window_days" => self.window_days = Some(num(key, value)?),
            "crowd.bias_country" => {
                let country = Country::ALL
                    .iter()
                    .find(|c| c.code().eq_ignore_ascii_case(value))
                    .copied()
                    .ok_or_else(|| {
                        format!("--set {key}: unknown country code {value:?} (use e.g. US, DE, BR)")
                    })?;
                self.bias_country = Some(country);
            }
            "crawl.products_per_retailer" => {
                self.products_per_retailer = Some(num(key, value)?);
            }
            "crawl.days" => self.crawl_days = Some(num(key, value)?),
            "crawl.start_day" => self.crawl_start_day = Some(num(key, value)?),
            "filler_domains" => self.filler_domains = Some(num(key, value)?),
            "world.failure_rate" | "failure_rate" => {
                let rate: f64 = num(key, value)?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("--set {key}: rate {rate} outside [0, 1]"));
                }
                self.failure_rate = Some(rate);
            }
            "login_products" => self.login_products = Some(num(key, value)?),
            "persona_products" => self.persona_products = Some(num(key, value)?),
            "analysis.fig1_domains" => self.fig1_domains = Some(num(key, value)?),
            "analysis.attribution_products" => {
                self.attribution_products = Some(num(key, value)?);
            }
            "desync_mins" => self.desync_mins = Some(num(key, value)?),
            "skip_cleaning" => self.skip_cleaning = Some(num(key, value)?),
            "vantage_labels" => {
                let labels: Vec<String> = value
                    .split(',')
                    .map(str::trim)
                    .filter(|l| !l.is_empty())
                    .map(str::to_owned)
                    .collect();
                if labels.is_empty() {
                    return Err(format!("--set {key}: no labels in {value:?}"));
                }
                self.vantage_labels = Some(labels);
            }
            "targets_from_crowd" => self.targets_from_crowd = Some(num(key, value)?),
            _ => return Err(format!("--set: unknown key {key:?}")),
        }
        Ok(())
    }
}

impl SweepAxis {
    /// The `--set` key this axis overwrites in every expanded arm, or
    /// `None` for axes that *derive from* the base plan instead of
    /// replacing it (`Seeds` starts from the base seed, `CrowdSizes`
    /// scales the base users/checks) — overrides compose with those.
    #[must_use]
    pub const fn clobbered_key(&self) -> Option<&'static str> {
        match self {
            SweepAxis::Seeds { .. } | SweepAxis::CrowdSizes { .. } => None,
            SweepAxis::Locales { .. } => Some("crowd.bias_country"),
            SweepAxis::FailureRates { .. } => Some("world.failure_rate"),
            SweepAxis::DesyncMins { .. } => Some("desync_mins"),
            SweepAxis::VantageSubsets { .. } => Some("vantage_labels"),
        }
    }

    /// The axis name used in validation errors.
    const fn axis_name(&self) -> &'static str {
        match self {
            SweepAxis::Seeds { .. } => "Seeds",
            SweepAxis::Locales { .. } => "Locales",
            SweepAxis::CrowdSizes { .. } => "CrowdSizes",
            SweepAxis::FailureRates { .. } => "FailureRates",
            SweepAxis::DesyncMins { .. } => "DesyncMins",
            SweepAxis::VantageSubsets { .. } => "VantageSubsets",
        }
    }

    fn validate(&self) -> Result<(), SpecError> {
        let labels: Vec<&str> = match self {
            SweepAxis::Seeds { count } => {
                if *count == 0 {
                    return Err(SpecError::EmptyAxis(self.axis_name()));
                }
                return Ok(());
            }
            SweepAxis::Locales { arms } => arms.iter().map(|a| a.label.as_str()).collect(),
            SweepAxis::CrowdSizes { arms } => arms.iter().map(|a| a.label.as_str()).collect(),
            SweepAxis::FailureRates { arms } => {
                for arm in arms {
                    if !(0.0..=1.0).contains(&arm.rate) {
                        return Err(SpecError::RateOutOfRange(arm.rate));
                    }
                }
                arms.iter().map(|a| a.label.as_str()).collect()
            }
            SweepAxis::DesyncMins { arms } => arms.iter().map(|a| a.label.as_str()).collect(),
            SweepAxis::VantageSubsets { arms } => {
                for arm in arms {
                    if arm.labels.is_empty() {
                        return Err(SpecError::EmptyVantageSubset(arm.label.clone()));
                    }
                    validate_vantage_subset(&arm.labels)?;
                }
                arms.iter().map(|a| a.label.as_str()).collect()
            }
        };
        if labels.is_empty() {
            return Err(SpecError::EmptyAxis(self.axis_name()));
        }
        let mut seen = std::collections::BTreeSet::new();
        for label in labels {
            if label.is_empty() || !seen.insert(label) {
                return Err(SpecError::BadLabel {
                    axis: self.axis_name(),
                    label: label.to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Expands one base plan into this axis's labeled arms.
    fn expand(&self, base: &RunPlan) -> Vec<(String, RunPlan)> {
        match self {
            SweepAxis::Seeds { count } => (0..*count)
                .map(|offset| {
                    let seed = base.config.seed.value() + offset;
                    let mut plan = base.clone();
                    plan.config.seed = pd_util::Seed::new(seed);
                    (format!("seed-{seed}"), plan)
                })
                .collect(),
            SweepAxis::Locales { arms } => arms
                .iter()
                .map(|arm| {
                    let mut plan = base.clone();
                    plan.config.crowd.bias_country = Some(arm.country);
                    (arm.label.clone(), plan)
                })
                .collect(),
            SweepAxis::CrowdSizes { arms } => arms
                .iter()
                .map(|arm| {
                    let mut plan = base.clone();
                    let scale = |n: usize| ((n as u64 * arm.scale_pct) / 100).max(1) as usize;
                    plan.config.crowd.users = scale(plan.config.crowd.users);
                    plan.config.crowd.checks = scale(plan.config.crowd.checks);
                    (arm.label.clone(), plan)
                })
                .collect(),
            SweepAxis::FailureRates { arms } => arms
                .iter()
                .map(|arm| {
                    let mut plan = base.clone();
                    plan.config.world.failure_rate = arm.rate;
                    (arm.label.clone(), plan)
                })
                .collect(),
            SweepAxis::DesyncMins { arms } => arms
                .iter()
                .map(|arm| {
                    let mut plan = base.clone();
                    plan.desync = SimDuration::from_mins(arm.mins);
                    (arm.label.clone(), plan)
                })
                .collect(),
            SweepAxis::VantageSubsets { arms } => arms
                .iter()
                .map(|arm| {
                    let mut plan = base.clone();
                    plan.vantage_labels = Some(arm.labels.clone());
                    (arm.label.clone(), plan)
                })
                .collect(),
        }
    }
}

impl ScenarioSpec {
    /// A single-run spec with no overrides (the `paper` shape).
    #[must_use]
    pub fn single(name: &str, describe: &str) -> Self {
        ScenarioSpec {
            name: name.to_owned(),
            describe: describe.to_owned(),
            base: None,
            patch: ConfigPatch::default(),
            sweep: Vec::new(),
        }
    }

    /// Checks the spec is well-formed: non-empty name, known pinned
    /// profile, every axis non-empty with unique non-empty labels, rates
    /// in range.
    ///
    /// # Errors
    ///
    /// The first [`SpecError`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError::EmptyName);
        }
        if let Some(base) = &self.base {
            if Profile::parse(base).is_none() {
                return Err(SpecError::UnknownProfile(base.clone()));
            }
        }
        // The patch shares the axis rule: a rate the world would assert
        // on must be a typed error here, never a mid-run panic. The
        // range check also rejects NaN.
        if let Some(rate) = self.patch.failure_rate {
            if !(0.0..=1.0).contains(&rate) {
                return Err(SpecError::RateOutOfRange(rate));
            }
        }
        if let Some(labels) = &self.patch.vantage_labels {
            validate_vantage_subset(labels)?;
        }
        for axis in &self.sweep {
            axis.validate()?;
        }
        Ok(())
    }

    /// The profile a run of this spec uses: the pinned `base` when the
    /// spec sets a known one, else `requested`.
    #[must_use]
    pub fn profile_for(&self, requested: Profile) -> Profile {
        self.base
            .as_deref()
            .and_then(Profile::parse)
            .unwrap_or(requested)
    }

    /// Lowers the spec to labeled [`RunPlan`]s at the given parameters:
    /// base profile (pinned or requested) → patch → sweep-axis cross
    /// product. No axes = a [`ScenarioRun::Single`]; otherwise every
    /// combination of axis arms becomes one labeled sweep arm, labels
    /// joined with `/`.
    ///
    /// # Errors
    ///
    /// [`SpecError`] if the spec fails [`ScenarioSpec::validate`].
    pub fn lower(&self, params: &ScenarioParams) -> Result<ScenarioRun, SpecError> {
        self.validate()?;
        let profile = self.profile_for(params.profile);
        let seed = self.patch.seed.unwrap_or(params.seed);
        let mut base = RunPlan::new(profile.config(seed));
        self.patch.apply(&mut base);
        if self.sweep.is_empty() {
            return Ok(ScenarioRun::Single(base));
        }
        let mut arms: Vec<(String, RunPlan)> = vec![(String::new(), base)];
        for axis in &self.sweep {
            arms = arms
                .iter()
                .flat_map(|(label, plan)| {
                    axis.expand(plan).into_iter().map(move |(arm_label, plan)| {
                        let label = if label.is_empty() {
                            arm_label
                        } else {
                            format!("{label}/{arm_label}")
                        };
                        (label, plan)
                    })
                })
                .collect();
        }
        Ok(ScenarioRun::Sweep(arms))
    }

    /// Lowers the spec, panicking on an invalid one. Registry builtins
    /// are always valid; prefer [`ScenarioSpec::lower`] for specs from
    /// files or user input.
    ///
    /// # Panics
    ///
    /// If the spec fails [`ScenarioSpec::validate`].
    #[must_use]
    pub fn plan(&self, params: &ScenarioParams) -> ScenarioRun {
        self.lower(params)
            .unwrap_or_else(|e| panic!("invalid spec {:?}: {e}", self.name))
    }

    /// A stable 64-bit digest of the spec's canonical JSON (FNV-1a, the
    /// same construction as the artifact-store fingerprints). Two specs
    /// that serialize identically fingerprint identically — the
    /// round-trip property the spec tests pin down.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let json = serde_json::to_string(self).expect("spec serializes");
        crate::store::fnv1a64(json.as_bytes())
    }

    /// The `(--set key, axis name)` pairs where `overrides` sets a field
    /// one of this spec's sweep axes overwrites in every arm — such an
    /// override would silently never run, so the CLI refuses it instead.
    /// Axes that derive from the base plan (`Seeds`, `CrowdSizes`)
    /// compose with overrides and never conflict.
    #[must_use]
    pub fn override_conflicts(&self, overrides: &ConfigPatch) -> Vec<(&'static str, &'static str)> {
        self.sweep
            .iter()
            .filter_map(|axis| {
                let key = axis.clobbered_key()?;
                let set = match key {
                    "crowd.bias_country" => overrides.bias_country.is_some(),
                    "world.failure_rate" => overrides.failure_rate.is_some(),
                    "desync_mins" => overrides.desync_mins.is_some(),
                    "vantage_labels" => overrides.vantage_labels.is_some(),
                    _ => false,
                };
                set.then(|| (key, axis.axis_name()))
            })
            .collect()
    }

    /// Serializes the spec as editable, pretty-printed JSON (what
    /// `pd scenarios show NAME --json` emits).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Parses a spec from JSON (the `pd run --spec FILE.json` format)
    /// and validates it.
    ///
    /// # Errors
    ///
    /// A human-readable message when the JSON does not parse, does not
    /// deserialize into a spec, or fails validation.
    pub fn from_json(json: &str) -> Result<ScenarioSpec, String> {
        let value: serde::Value =
            serde_json::from_str(json).map_err(|e| format!("spec does not parse: {e}"))?;
        // Every patch field is optional, so a misspelled key would
        // otherwise be silently dropped and the run would quietly use
        // the base value. Spec files fail loudly instead.
        reject_unknown_keys(&value)?;
        let spec: ScenarioSpec =
            serde_json::from_value(value).map_err(|e| format!("spec does not parse: {e}"))?;
        spec.validate()
            .map_err(|e| format!("invalid spec {:?}: {e}", spec.name))?;
        Ok(spec)
    }
}

/// The environment variable holding extra `:`-separated spec
/// directories, searched after `examples/specs/`.
pub const SPEC_PATH_ENV: &str = "PD_SPEC_PATH";

/// Directories a bare spec name resolves against, in search order:
/// `examples/specs/` under the current directory, then every non-empty
/// `:`-separated entry of [`SPEC_PATH_ENV`]. Read at call time, so a
/// long-running service picks up the environment it was launched with.
#[must_use]
pub fn spec_search_dirs() -> Vec<PathBuf> {
    let mut dirs = vec![PathBuf::from("examples/specs")];
    if let Ok(path) = std::env::var(SPEC_PATH_ENV) {
        dirs.extend(
            path.split(':')
                .filter(|entry| !entry.is_empty())
                .map(PathBuf::from),
        );
    }
    dirs
}

/// Every distinct spec name discoverable on the search path: the file
/// stem of each `*.json` in each [`spec_search_dirs`] entry, sorted.
/// Unreadable directories are skipped (most search entries are
/// optional), so this never fails.
#[must_use]
pub fn spec_names_on_path() -> Vec<String> {
    let mut stems = BTreeSet::new();
    for dir in spec_search_dirs() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|ext| ext == "json") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    stems.insert(stem.to_owned());
                }
            }
        }
    }
    stems.into_iter().collect()
}

/// Resolves a `--spec` argument (or a `POST /runs` spec name) to a file.
///
/// An argument naming an existing file wins unchanged. Otherwise a bare
/// name — no path separator — is tried as `NAME` and `NAME.json` in each
/// [`spec_search_dirs`] entry, in order. The error names the searched
/// directories and suggests the closest discovered spec
/// ([`suggest_name`] over the `*.json` stems).
///
/// # Errors
///
/// A human-readable message when nothing on disk matches.
pub fn find_spec_file(arg: &str) -> Result<PathBuf, String> {
    let direct = Path::new(arg);
    if direct.is_file() {
        return Ok(direct.to_path_buf());
    }
    let bare = !arg.contains('/') && !arg.contains(std::path::MAIN_SEPARATOR);
    let dirs = spec_search_dirs();
    if bare {
        for dir in &dirs {
            for candidate in [dir.join(arg), dir.join(format!("{arg}.json"))] {
                if candidate.is_file() {
                    return Ok(candidate);
                }
            }
        }
    }
    let mut msg = format!("spec {arg:?} not found");
    if bare {
        let searched: Vec<String> = dirs.iter().map(|d| d.display().to_string()).collect();
        msg.push_str(&format!(" (searched {})", searched.join(", ")));
        let names = spec_names_on_path();
        let stem = arg.strip_suffix(".json").unwrap_or(arg);
        if let Some(hint) = suggest_name(stem, names.iter().map(String::as_str)) {
            msg.push_str(&format!("; did you mean {hint:?}?"));
        } else if !names.is_empty() {
            msg.push_str(&format!("; available: {}", names.join(", ")));
        }
    }
    Err(msg)
}

/// [`find_spec_file`] + read + [`ScenarioSpec::from_json`]: the one-call
/// resolver behind `pd run --spec` and the service's by-name submissions.
///
/// # Errors
///
/// The search error, a read failure, or a parse/validation failure —
/// all as human-readable messages naming the offending path.
pub fn load_spec(arg: &str) -> Result<ScenarioSpec, String> {
    let path = find_spec_file(arg)?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading spec {}: {e}", path.display()))?;
    ScenarioSpec::from_json(&text).map_err(|e| format!("spec {}: {e}", path.display()))
}

/// The keys a spec file may use, per object. Deserialization ignores
/// unknown struct fields (they all default to `None`), so
/// [`ScenarioSpec::from_json`] walks the raw JSON first and names any
/// key that would be dropped.
fn reject_unknown_keys(value: &serde::Value) -> Result<(), String> {
    const SPEC_KEYS: &[&str] = &["name", "describe", "base", "patch", "sweep"];
    const PATCH_KEYS: &[&str] = &[
        "seed",
        "users",
        "checks",
        "window_days",
        "bias_country",
        "products_per_retailer",
        "crawl_days",
        "crawl_start_day",
        "filler_domains",
        "failure_rate",
        "login_products",
        "persona_products",
        "fig1_domains",
        "attribution_products",
        "desync_mins",
        "skip_cleaning",
        "vantage_labels",
        "targets_from_crowd",
    ];
    fn check(map: &serde::Map, allowed: &[&str], what: &str) -> Result<(), String> {
        for key in map.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("unknown {what} key {key:?}"));
            }
        }
        Ok(())
    }
    let Some(spec) = value.as_object() else {
        return Err("spec must be a JSON object".to_owned());
    };
    check(spec, SPEC_KEYS, "spec")?;
    if let Some(patch) = spec.get("patch").and_then(serde::Value::as_object) {
        check(patch, PATCH_KEYS, "patch")?;
    }
    let Some(axes) = spec.get("sweep").and_then(serde::Value::as_array) else {
        return Ok(());
    };
    for axis in axes {
        let Some((variant, payload)) = axis.as_single_entry() else {
            // Not the externally tagged shape; deserialization will
            // produce the precise error.
            continue;
        };
        let arm_keys: &[&str] = match variant {
            "Seeds" => {
                if let Some(map) = payload.as_object() {
                    check(map, &["count"], "Seeds axis")?;
                }
                continue;
            }
            "Locales" => &["label", "country"],
            "CrowdSizes" => &["label", "scale_pct"],
            "FailureRates" => &["label", "rate"],
            "DesyncMins" => &["label", "mins"],
            "VantageSubsets" => &["label", "labels"],
            other => return Err(format!("unknown sweep axis {other:?}")),
        };
        if let Some(map) = payload.as_object() {
            check(map, &["arms"], "sweep axis")?;
            if let Some(arms) = map.get("arms").and_then(serde::Value::as_array) {
                for arm in arms {
                    if let Some(map) = arm.as_object() {
                        check(map, arm_keys, &format!("{variant} arm"))?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Every built-in scenario, as a spec. The first seven reproduce the
/// original trait-based registry byte-for-byte; the last three are the
/// ROADMAP additions (crowd-size sweep, failure-rate sweep,
/// crowd-targeted crawl) — now just data.
#[must_use]
pub fn builtin_specs() -> Vec<ScenarioSpec> {
    let mut specs = vec![
        ScenarioSpec::single(
            "paper",
            "the paper's crowd + crawl + persona study at the requested profile",
        ),
        ScenarioSpec {
            base: Some("smoke".to_owned()),
            ..ScenarioSpec::single(
                "smoke",
                "sub-second CI run exercising every stage (profile-independent)",
            )
        },
        ScenarioSpec {
            sweep: vec![SweepAxis::DesyncMins {
                arms: vec![
                    DesyncArm {
                        label: "synchronized".to_owned(),
                        mins: 0,
                    },
                    DesyncArm {
                        label: "desync-25m".to_owned(),
                        mins: DESYNC_SKEW.as_millis() / 60_000,
                    },
                ],
            }],
            ..ScenarioSpec::single(
                "desync-ablation",
                "sweep: synchronized fan-out vs 25-min per-probe skew",
            )
        },
        ScenarioSpec {
            patch: ConfigPatch {
                skip_cleaning: Some(true),
                ..ConfigPatch::default()
            },
            ..ScenarioSpec::single(
                "no-cleaning",
                "paper run with the Sec. 3.2 noise-cleaning pass disabled",
            )
        },
        ScenarioSpec {
            patch: ConfigPatch {
                vantage_labels: Some(
                    VANTAGE_SUBSET_LABELS
                        .iter()
                        .map(|l| (*l).to_owned())
                        .collect(),
                ),
                ..ConfigPatch::default()
            },
            ..ScenarioSpec::single(
                "vantage-subset",
                "paper run on an 8-probe fleet (fan-out cost ablation)",
            )
        },
        ScenarioSpec {
            sweep: vec![SweepAxis::Seeds { count: 3 }],
            ..ScenarioSpec::single(
                "seed-sweep",
                "sweep: three consecutive seeds (are conclusions seed-stable?)",
            )
        },
        ScenarioSpec {
            sweep: vec![SweepAxis::Locales {
                arms: vec![
                    LocaleArm {
                        label: "us-heavy".to_owned(),
                        country: Country::UnitedStates,
                    },
                    LocaleArm {
                        label: "de-heavy".to_owned(),
                        country: Country::Germany,
                    },
                    LocaleArm {
                        label: "br-heavy".to_owned(),
                        country: Country::Brazil,
                    },
                ],
            }],
            ..ScenarioSpec::single(
                "locale-sweep",
                "sweep: crowd population biased US / DE / BR (discovery robustness)",
            )
        },
    ];
    specs.extend(roadmap_specs());
    specs
}

/// The three ROADMAP scenarios that motivated the spec redesign — each
/// one is a handful of data fields where it used to be a trait impl.
fn roadmap_specs() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            sweep: vec![SweepAxis::CrowdSizes {
                arms: vec![
                    CrowdSizeArm {
                        label: "crowd-25pct".to_owned(),
                        scale_pct: 25,
                    },
                    CrowdSizeArm {
                        label: "crowd-50pct".to_owned(),
                        scale_pct: 50,
                    },
                    CrowdSizeArm {
                        label: "crowd-100pct".to_owned(),
                        scale_pct: 100,
                    },
                ],
            }],
            ..ScenarioSpec::single(
                "crowd-sweep",
                "sweep: crowd budget at 25/50/100% of the profile (discovery vs crowd size)",
            )
        },
        ScenarioSpec {
            sweep: vec![SweepAxis::FailureRates {
                arms: vec![
                    FailureRateArm {
                        label: "fail-0".to_owned(),
                        rate: 0.0,
                    },
                    FailureRateArm {
                        label: "fail-5pct".to_owned(),
                        rate: 0.05,
                    },
                    FailureRateArm {
                        label: "fail-20pct".to_owned(),
                        rate: 0.2,
                    },
                ],
            }],
            ..ScenarioSpec::single(
                "failure-sweep",
                "sweep: transient fetch failures at 0/5/20% (retry robustness)",
            )
        },
        ScenarioSpec {
            patch: ConfigPatch {
                targets_from_crowd: Some(1),
                ..ConfigPatch::default()
            },
            ..ScenarioSpec::single(
                "targeted-crawl",
                "crawl targets ranked from confirmed crowd variation, not the paper's list",
            )
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ScenarioParams {
        ScenarioParams {
            seed: 1307,
            profile: Profile::Smoke,
        }
    }

    #[test]
    fn builtins_validate_and_carry_descriptions() {
        let specs = builtin_specs();
        assert_eq!(specs.len(), 10);
        for spec in &specs {
            spec.validate()
                .unwrap_or_else(|e| panic!("builtin {:?} invalid: {e}", spec.name));
            assert!(!spec.describe.is_empty(), "{} undocumented", spec.name);
        }
    }

    #[test]
    fn patch_applies_config_and_plan_knobs() {
        let patch = ConfigPatch {
            users: Some(10),
            checks: Some(20),
            failure_rate: Some(0.25),
            desync_mins: Some(5),
            skip_cleaning: Some(true),
            targets_from_crowd: Some(2),
            ..ConfigPatch::default()
        };
        let mut plan = RunPlan::new(crate::ExperimentConfig::smoke(1));
        patch.apply(&mut plan);
        assert_eq!(plan.config.crowd.users, 10);
        assert_eq!(plan.config.crowd.checks, 20);
        assert_eq!(plan.config.world.failure_rate, 0.25);
        assert_eq!(plan.desync, SimDuration::from_mins(5));
        assert!(!plan.cleaning);
        assert_eq!(plan.targets_from_crowd, Some(2));
    }

    #[test]
    fn merge_prefers_the_overriding_patch() {
        let mut base = ConfigPatch {
            users: Some(10),
            checks: Some(20),
            ..ConfigPatch::default()
        };
        let over = ConfigPatch {
            users: Some(99),
            failure_rate: Some(0.5),
            ..ConfigPatch::default()
        };
        base.merge(&over);
        assert_eq!(base.users, Some(99), "override wins");
        assert_eq!(base.checks, Some(20), "unset override keeps base");
        assert_eq!(base.failure_rate, Some(0.5));
    }

    #[test]
    fn set_parses_known_keys_and_rejects_unknown() {
        let mut patch = ConfigPatch::default();
        patch.set("crowd.users", "12").expect("users");
        patch.set("failure_rate", "0.1").expect("rate");
        patch.set("crowd.bias_country", "de").expect("country");
        patch.set("skip_cleaning", "true").expect("bool");
        patch
            .set("vantage_labels", "USA - Boston, Finland - Tampere")
            .expect("labels");
        assert_eq!(patch.users, Some(12));
        assert_eq!(patch.bias_country, Some(Country::Germany));
        assert_eq!(patch.skip_cleaning, Some(true));
        assert_eq!(
            patch.vantage_labels.as_deref(),
            Some(&["USA - Boston".to_owned(), "Finland - Tampere".to_owned()][..])
        );
        assert!(patch.set("warp.speed", "9").is_err());
        assert!(patch.set("failure_rate", "1.5").is_err());
        assert!(patch.set("crowd.users", "many").is_err());
        assert!(patch.set("crowd.bias_country", "XX").is_err());
    }

    #[test]
    fn lowering_without_axes_is_a_single_run() {
        let spec = ScenarioSpec::single("solo", "one run");
        let ScenarioRun::Single(plan) = spec.plan(&params()) else {
            panic!("no axes must lower to a single run");
        };
        assert_eq!(plan.config.seed.value(), 1307);
        assert_eq!(plan.config.crowd.checks, 60, "smoke profile requested");
    }

    #[test]
    fn pinned_base_profile_overrides_the_requested_one() {
        let spec = ScenarioSpec {
            base: Some("small".to_owned()),
            ..ScenarioSpec::single("pinned", "always small")
        };
        let ScenarioRun::Single(plan) = spec.plan(&params()) else {
            panic!("single");
        };
        assert_eq!(plan.config.crowd.checks, 150, "small, not smoke");
    }

    #[test]
    fn axes_cross_product_and_join_labels() {
        let spec = ScenarioSpec {
            sweep: vec![
                SweepAxis::Seeds { count: 2 },
                SweepAxis::FailureRates {
                    arms: vec![
                        FailureRateArm {
                            label: "clean".to_owned(),
                            rate: 0.0,
                        },
                        FailureRateArm {
                            label: "flaky".to_owned(),
                            rate: 0.5,
                        },
                    ],
                },
            ],
            ..ScenarioSpec::single("grid", "2×2")
        };
        let arms = spec.plan(&params()).into_variants();
        let labels: Vec<&str> = arms.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "seed-1307/clean",
                "seed-1307/flaky",
                "seed-1308/clean",
                "seed-1308/flaky"
            ]
        );
        assert_eq!(arms[1].1.config.seed.value(), 1307);
        assert_eq!(arms[1].1.config.world.failure_rate, 0.5);
        assert_eq!(arms[3].1.config.seed.value(), 1308);
    }

    #[test]
    fn crowd_size_arms_scale_users_and_checks() {
        let spec = ScenarioSpec {
            sweep: vec![SweepAxis::CrowdSizes {
                arms: vec![CrowdSizeArm {
                    label: "tiny".to_owned(),
                    scale_pct: 25,
                }],
            }],
            ..ScenarioSpec::single("sizes", "scaled")
        };
        let arms = spec.plan(&params()).into_variants();
        // Smoke base: 30 users, 60 checks.
        assert_eq!(arms[0].1.config.crowd.users, 7);
        assert_eq!(arms[0].1.config.crowd.checks, 15);
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        let mut nameless = ScenarioSpec::single("", "no name");
        assert_eq!(nameless.validate(), Err(SpecError::EmptyName));
        nameless.name = "named".to_owned();
        nameless.base = Some("galactic".to_owned());
        assert!(matches!(
            nameless.validate(),
            Err(SpecError::UnknownProfile(_))
        ));

        let empty_axis = ScenarioSpec {
            sweep: vec![SweepAxis::Seeds { count: 0 }],
            ..ScenarioSpec::single("s", "d")
        };
        assert_eq!(empty_axis.validate(), Err(SpecError::EmptyAxis("Seeds")));

        let dup = ScenarioSpec {
            sweep: vec![SweepAxis::DesyncMins {
                arms: vec![
                    DesyncArm {
                        label: "same".to_owned(),
                        mins: 0,
                    },
                    DesyncArm {
                        label: "same".to_owned(),
                        mins: 1,
                    },
                ],
            }],
            ..ScenarioSpec::single("s", "d")
        };
        assert!(matches!(dup.validate(), Err(SpecError::BadLabel { .. })));

        let bad_rate = ScenarioSpec {
            sweep: vec![SweepAxis::FailureRates {
                arms: vec![FailureRateArm {
                    label: "over".to_owned(),
                    rate: 1.5,
                }],
            }],
            ..ScenarioSpec::single("s", "d")
        };
        assert!(matches!(
            bad_rate.validate(),
            Err(SpecError::RateOutOfRange(_))
        ));

        let empty_fleet = ScenarioSpec {
            sweep: vec![SweepAxis::VantageSubsets {
                arms: vec![VantageArm {
                    label: "none".to_owned(),
                    labels: vec![],
                }],
            }],
            ..ScenarioSpec::single("s", "d")
        };
        assert!(matches!(
            empty_fleet.validate(),
            Err(SpecError::EmptyVantageSubset(_))
        ));
    }

    fn labels(labels: &[&str]) -> Vec<String> {
        labels.iter().map(|l| (*l).to_owned()).collect()
    }

    #[test]
    fn vantage_subsets_must_name_paper_probes_and_keep_the_required_ones() {
        let patched = |subset: &[&str]| ScenarioSpec {
            patch: ConfigPatch {
                vantage_labels: Some(labels(subset)),
                ..ConfigPatch::default()
            },
            ..ScenarioSpec::single("subset", "patched fleet")
        };
        let swept = |subset: &[&str]| ScenarioSpec {
            sweep: vec![SweepAxis::VantageSubsets {
                arms: vec![
                    VantageArm {
                        label: "full".to_owned(),
                        labels: labels(&crate::scenario::VANTAGE_SUBSET_LABELS),
                    },
                    VantageArm {
                        label: "bad".to_owned(),
                        labels: labels(subset),
                    },
                ],
            }],
            ..ScenarioSpec::single("subsets", "swept fleets")
        };
        for spec in [patched, swept] {
            assert_eq!(
                spec(&["USA - Boston", "Germany - Berlin"]).validate(),
                Err(SpecError::MissingVantage("Finland - Tampere".to_owned()))
            );
            assert_eq!(
                spec(&["Finland - Tampere"]).validate(),
                Err(SpecError::MissingVantage("USA - Boston".to_owned()))
            );
            assert_eq!(
                spec(&["USA - Boston", "Mars - Olympus", "Finland - Tampere"]).validate(),
                Err(SpecError::UnknownVantage("Mars - Olympus".to_owned()))
            );
            assert_eq!(spec(&REQUIRED_VANTAGE_LABELS).validate(), Ok(()));
        }
        let err = patched(&["Mars - Olympus"]).validate().unwrap_err();
        assert!(err.to_string().contains("\"Mars - Olympus\""), "{err}");
    }

    #[test]
    fn patch_failure_rate_is_validated_up_front() {
        let out_of_range = ScenarioSpec {
            patch: ConfigPatch {
                failure_rate: Some(1.5),
                ..ConfigPatch::default()
            },
            ..ScenarioSpec::single("hot", "rate too high")
        };
        assert!(matches!(
            out_of_range.validate(),
            Err(SpecError::RateOutOfRange(_))
        ));
        let nan = ScenarioSpec {
            patch: ConfigPatch {
                failure_rate: Some(f64::NAN),
                ..ConfigPatch::default()
            },
            ..ScenarioSpec::single("nan", "rate is NaN")
        };
        assert!(matches!(nan.validate(), Err(SpecError::RateOutOfRange(_))));
    }

    #[test]
    fn from_json_rejects_unknown_keys() {
        // A misspelled patch field must not silently run the baseline.
        let typo = r#"{"name":"x","describe":"d","base":null,
            "patch":{"failure_rat":0.5},"sweep":[]}"#;
        let err = ScenarioSpec::from_json(typo).expect_err("typo must be rejected");
        assert!(err.contains("failure_rat"), "{err}");

        let top_level = r#"{"name":"x","describe":"d","base":null,
            "patch":{},"sweep":[],"sweeps":[]}"#;
        assert!(ScenarioSpec::from_json(top_level).is_err());

        let bad_axis = r#"{"name":"x","describe":"d","base":null,"patch":{},
            "sweep":[{"FailureRates":{"arms":[{"label":"a","rte":0.1}]}}]}"#;
        let err = ScenarioSpec::from_json(bad_axis).expect_err("arm typo rejected");
        assert!(err.contains("rte"), "{err}");

        let unknown_axis = r#"{"name":"x","describe":"d","base":null,"patch":{},
            "sweep":[{"Warp":{"arms":[]}}]}"#;
        assert!(ScenarioSpec::from_json(unknown_axis).is_err());
    }

    #[test]
    fn override_conflicts_name_clobbered_axes_only() {
        let failure_sweep = builtin_specs()
            .into_iter()
            .find(|s| s.name == "failure-sweep")
            .expect("builtin");
        let rate_override = ConfigPatch {
            failure_rate: Some(0.9),
            ..ConfigPatch::default()
        };
        assert_eq!(
            failure_sweep.override_conflicts(&rate_override),
            vec![("world.failure_rate", "FailureRates")]
        );
        // An unrelated override composes fine.
        let crawl_override = ConfigPatch {
            crawl_days: Some(1),
            ..ConfigPatch::default()
        };
        assert!(failure_sweep.override_conflicts(&crawl_override).is_empty());

        // Seeds and CrowdSizes derive from the base plan: overriding the
        // seed or crowd scale composes instead of conflicting.
        let seed_sweep = builtin_specs()
            .into_iter()
            .find(|s| s.name == "seed-sweep")
            .expect("builtin");
        let seed_override = ConfigPatch {
            seed: Some(42),
            ..ConfigPatch::default()
        };
        assert!(seed_sweep.override_conflicts(&seed_override).is_empty());
        let arms = ScenarioSpec {
            patch: seed_override,
            ..seed_sweep
        }
        .plan(&params())
        .into_variants();
        assert_eq!(arms[0].0, "seed-42", "the override moves the sweep base");
    }

    #[test]
    fn json_round_trip_preserves_spec_and_fingerprint() {
        for spec in builtin_specs() {
            let json = spec.to_json_pretty();
            let back = ScenarioSpec::from_json(&json)
                .unwrap_or_else(|e| panic!("{} round trip: {e}", spec.name));
            assert_eq!(back, spec, "{} did not round-trip", spec.name);
            assert_eq!(back.fingerprint(), spec.fingerprint());
        }
        assert!(ScenarioSpec::from_json("{ not json").is_err());
        assert!(
            ScenarioSpec::from_json("{\"name\":\"\"}").is_err(),
            "parse must validate"
        );
    }
}
