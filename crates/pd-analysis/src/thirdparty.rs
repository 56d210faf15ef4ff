//! Sec. 4.4's third-party presence scan.
//!
//! "We investigate the frequency of third parties that are present on the
//! retailers we study. It would appear that Google is present on most
//! e-retailers with their analytics (95%) and doubleclick (65%) domains.
//! Social networks … Facebook (80%), Pinterest (45%), and Twitter (40%)."
//!
//! The scan is operational: fetch one product page per domain and look
//! for the third-party hosts in `script src` / `img src` attributes —
//! the same passive inspection the authors ran on stored pages.

use pd_html::Selector;
use pd_net::clock::SimTime;
use pd_pricing::retailer::ThirdParty;
use pd_web::{Request, WebWorld};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Presence table for the scanned domains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThirdPartyTable {
    /// Domains scanned.
    pub scanned: usize,
    /// `(third-party host, presence fraction)` rows, in the paper's
    /// order: GA, DoubleClick, Facebook, Pinterest, Twitter.
    pub rows: Vec<(String, f64)>,
}

/// Scans one product page per domain for embedded third-party hosts.
#[must_use]
pub fn scan_third_parties(
    world: &WebWorld,
    domains: &[String],
    client: Ipv4Addr,
    time: SimTime,
) -> ThirdPartyTable {
    let script_sel = Selector::parse("script[src]").expect("static selector");
    let img_sel = Selector::parse("img[src]").expect("static selector");
    let mut counts = [0usize; 5];
    let mut scanned = 0usize;

    for domain in domains {
        let Some(server) = world.server_by_domain(domain) else {
            continue;
        };
        let Some(product) = server.catalog().iter().next() else {
            continue;
        };
        let req = Request::get(domain, &format!("/product/{}", product.slug), client, time);
        let resp = world.fetch(&req);
        if resp.status.code() != 200 {
            continue;
        }
        scanned += 1;
        let doc = pd_html::parse_pooled(&resp.body);
        let srcs: Vec<String> = script_sel
            .query_all(&doc)
            .into_iter()
            .chain(img_sel.query_all(&doc))
            .filter_map(|n| doc.attr(n, "src").map(str::to_owned))
            .collect();
        for (i, tp) in ThirdParty::ALL.iter().enumerate() {
            if srcs.iter().any(|s| s.contains(tp.host())) {
                counts[i] += 1;
            }
        }
    }

    let rows = ThirdParty::ALL
        .iter()
        .zip(counts)
        .map(|(tp, c)| {
            (
                tp.host().to_owned(),
                if scanned == 0 {
                    0.0
                } else {
                    c as f64 / scanned as f64
                },
            )
        })
        .collect();
    ThirdPartyTable { scanned, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_net::geo::{Country, Location};
    use pd_pricing::paper_retailers;
    use pd_util::Seed;

    #[test]
    fn scan_matches_spec_assignment() {
        let seed = Seed::new(1307);
        let specs = paper_retailers(seed);
        let crawled: Vec<String> = specs
            .iter()
            .filter(|s| s.crawled)
            .map(|s| s.domain.clone())
            .collect();
        let mut world = WebWorld::build(seed, specs.clone(), 160);
        let addr = world.allocate_client(&Location::new(Country::UnitedStates, "Boston"));
        let table = scan_third_parties(&world, &crawled, addr, SimTime::EPOCH);
        assert_eq!(table.scanned, 21);
        // The operational scan must agree exactly with the spec's
        // ground-truth tag assignment.
        for (i, tp) in pd_pricing::retailer::ThirdParty::ALL.iter().enumerate() {
            let truth = specs
                .iter()
                .filter(|s| s.crawled && s.third_parties.contains(tp))
                .count() as f64
                / 21.0;
            assert!(
                (table.rows[i].1 - truth).abs() < 1e-9,
                "{}: scan {} vs truth {}",
                tp.host(),
                table.rows[i].1,
                truth
            );
        }
    }

    #[test]
    fn scan_of_unknown_domains_is_empty() {
        let seed = Seed::new(1307);
        let mut world = WebWorld::build(seed, paper_retailers(seed), 160);
        let addr = world.allocate_client(&Location::new(Country::Spain, "Barcelona"));
        let table = scan_third_parties(&world, &["gone.example".to_owned()], addr, SimTime::EPOCH);
        assert_eq!(table.scanned, 0);
        assert!(table.rows.iter().all(|(_, f)| *f == 0.0));
    }
}
