//! World assembly: retailers + vantage fleet + crowd, and the small
//! [`AnalysisContext`] the analysis reads instead of a built world.

use crate::config::ExperimentConfig;
use crate::executor::Executor;
use crate::scenario::RunPlan;
use pd_currency::FxSeries;
use pd_net::ip::IpAllocator;
use pd_net::latency::LatencyModel;
use pd_net::vantage::{paper_vantage_points, VantagePoint};
use pd_pricing::{filler_retailers, paper_retailers};
use pd_sheriff::{Crowd, Sheriff};
use pd_util::VantageId;
use pd_web::{RetailerServer, WebWorld};

/// The assembled simulation world.
#[derive(Debug)]
pub struct World {
    /// The simulated web (servers, DNS, geo-IP, FX).
    pub web: WebWorld,
    /// The fan-out engine with the 14-probe fleet.
    pub sheriff: Sheriff,
    /// The $heriff user population.
    pub crowd: Crowd,
}

impl World {
    /// Builds the world for a configuration on the calling thread.
    #[must_use]
    pub fn build(config: &ExperimentConfig) -> Self {
        Self::build_on(config, &Executor::serial())
    }

    /// Builds the world for a configuration, its retailer servers fanned
    /// across `exec` (each is a pure function of the seed and its spec)
    /// and registered in spec order, so the world is the same at every
    /// thread count.
    #[must_use]
    pub fn build_on(config: &ExperimentConfig, exec: &Executor) -> Self {
        let seed = config.seed;
        let mut specs = paper_retailers(seed);
        specs.extend(filler_retailers(seed, config.filler_domains));
        let servers =
            exec.map_indexed(specs.len(), |i| RetailerServer::new(seed, specs[i].clone()));
        let mut web = WebWorld::from_servers(seed, servers, config.fx_days);
        // Failure injection is part of the world, not the campaign: a
        // spec-set rate shapes every fetch (crowd, crawl, personas) and
        // is therefore in every measurement fingerprint.
        web.set_failure_rate(config.world.failure_rate);

        // Vantage points draw their client addresses from the world's
        // allocator so retailers geo-locate them city-accurately.
        let mut scratch = IpAllocator::new();
        let vantage_points: Vec<VantagePoint> = paper_vantage_points(&mut scratch)
            .into_iter()
            .map(|mut vp| {
                vp.addr = web.allocate_client(&vp.location);
                vp
            })
            .collect();
        let sheriff = Sheriff::new(vantage_points, LatencyModel::new(seed));
        let crowd = Crowd::new(seed, config.crowd.clone(), &mut web);
        World {
            web,
            sheriff,
            crowd,
        }
    }

    /// `(id, Fig. 7 label)` pairs for the full vantage fleet.
    #[must_use]
    pub fn vantage_labels(&self) -> Vec<(VantageId, String)> {
        self.sheriff
            .vantage_points()
            .iter()
            .map(|vp| (vp.id, vp.label()))
            .collect()
    }

    /// Looks a vantage point up by its Fig. 7 label.
    #[must_use]
    pub fn vantage_by_label(&self, label: &str) -> Option<&VantagePoint> {
        self.sheriff
            .vantage_points()
            .iter()
            .find(|vp| vp.label() == label)
    }

    /// The crawl-target domains, paper fidelity: the 21 retailers of
    /// Figs. 3/4/9.
    #[must_use]
    pub fn paper_crawl_targets(&self) -> Vec<String> {
        self.web
            .servers()
            .iter()
            .filter(|s| s.spec().crawled)
            .map(|s| s.spec().domain.clone())
            .collect()
    }
}

/// What the analysis reads of the world, derived from a [`RunPlan`]
/// without building one: the FX series, the vantage `(id, label)` table
/// after the plan's subset, and the crowd's distinct country count. A
/// re-analysis of stored measurements needs nothing else, so it builds
/// no retailer catalogs, pricing engines or crowd population.
#[derive(Debug, Clone)]
pub struct AnalysisContext {
    /// The daily exchange-rate series the world's web would carry.
    pub fx: FxSeries,
    /// `(id, Fig. 7 label)` for every vantage point in the plan's fleet,
    /// in fleet order.
    pub vantage: Vec<(VantageId, String)>,
    /// Distinct home countries of the crowd population.
    pub crowd_countries: usize,
}

impl AnalysisContext {
    /// The context a [`World`] built for `plan` would give.
    #[must_use]
    pub fn from_plan(plan: &RunPlan) -> Self {
        let config = &plan.config;
        let mut vantage: Vec<(VantageId, String)> = paper_vantage_points(&mut IpAllocator::new())
            .into_iter()
            .map(|vp| (vp.id, vp.label()))
            .collect();
        // The same rule as `Sheriff::with_vantage_subset`.
        if let Some(labels) = &plan.vantage_labels {
            vantage.retain(|(_, label)| labels.contains(label));
        }
        AnalysisContext {
            fx: FxSeries::generate(config.seed, config.fx_days),
            vantage,
            crowd_countries: Crowd::planned_country_count(config.seed, &config.crowd),
        }
    }

    /// The vantage point with Fig. 7 label `label`, if the fleet has it.
    #[must_use]
    pub fn vantage_by_label(&self, label: &str) -> Option<VantageId> {
        self.vantage
            .iter()
            .find(|(_, l)| l == label)
            .map(|(id, _)| *id)
    }

    /// `(id, label)` for each of `labels` the fleet has, in `labels`
    /// order.
    #[must_use]
    pub fn vantage_pairs(&self, labels: &[&str]) -> Vec<(VantageId, String)> {
        labels
            .iter()
            .filter_map(|l| self.vantage_by_label(l).map(|id| (id, (*l).to_owned())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;

    #[test]
    fn world_builds_with_small_config() {
        let w = World::build(&ExperimentConfig::small(1));
        assert_eq!(w.sheriff.vantage_points().len(), 14);
        assert_eq!(w.web.servers().len(), 30 + 60);
        assert_eq!(w.paper_crawl_targets().len(), 21);
    }

    #[test]
    fn vantage_lookup_by_label() {
        let w = World::build(&ExperimentConfig::small(1));
        assert!(w.vantage_by_label("Finland - Tampere").is_some());
        assert!(w.vantage_by_label("Spain (Mac,Safari)").is_some());
        assert!(w.vantage_by_label("Mars - Olympus").is_none());
        assert_eq!(w.vantage_labels().len(), 14);
    }

    #[test]
    fn world_applies_the_configured_failure_rate() {
        let mut config = ExperimentConfig::small(1);
        config.world.failure_rate = 0.5;
        let w = World::build(&config);
        let addr = w.sheriff.vantage_points()[0].addr;
        let slug = &w.web.servers()[0].catalog().iter().next().unwrap().slug;
        let domain = &w.web.servers()[0].spec().domain;
        // At a 50% rate, 40 distinct seconds must hit at least one
        // injected failure (the failure hash is keyed, not sampled).
        let failed = (0..40u64).any(|s| {
            let req = pd_web::Request::get(
                domain,
                &format!("/product/{slug}"),
                addr,
                pd_net::clock::SimTime::from_millis(s * 1000),
            );
            w.web.fetch(&req).status.code() != 200
        });
        assert!(failed, "configured failure rate must reach the web world");
    }

    #[test]
    fn worlds_built_on_any_thread_count_serve_the_same_pages() {
        let config = ExperimentConfig::small(1307);
        let serial = World::build(&config);
        let fanned = World::build_on(&config, &Executor::new(4));
        assert_eq!(serial.web.servers().len(), fanned.web.servers().len());
        let vp = &serial.sheriff.vantage_points()[3];
        assert_eq!(vp, &fanned.sheriff.vantage_points()[3]);
        for (a, b) in serial.web.servers().iter().zip(fanned.web.servers()) {
            let domain = &a.spec().domain;
            assert_eq!(a.spec(), b.spec());
            assert_eq!(
                serial.web.hosts().resolve(domain),
                fanned.web.hosts().resolve(domain)
            );
            for product in a.catalog().iter().take(3) {
                let req = pd_web::Request::get(
                    domain,
                    &format!("/product/{}", product.slug),
                    vp.addr,
                    pd_net::clock::SimTime::from_millis(86_400_000),
                );
                let (pa, pb) = (serial.web.fetch(&req), fanned.web.fetch(&req));
                assert_eq!(pa.status, pb.status, "{domain}");
                assert_eq!(pa.body, pb.body, "{domain}/{}", product.slug);
            }
        }
    }

    #[test]
    fn world_is_deterministic() {
        let a = World::build(&ExperimentConfig::small(9));
        let b = World::build(&ExperimentConfig::small(9));
        for (sa, sb) in a.web.servers().iter().zip(b.web.servers()) {
            assert_eq!(sa.spec(), sb.spec());
        }
        for (va, vb) in a
            .sheriff
            .vantage_points()
            .iter()
            .zip(b.sheriff.vantage_points())
        {
            assert_eq!(va, vb);
        }
    }
}
