//! The full simulated web.
//!
//! [`WebWorld`] wires every retailer server behind a DNS-like host
//! registry, owns the shared FX series, and resolves client addresses to
//! locations with city granularity (the commercial-geo-IP model: country
//! from the address block, city from the registration the access network
//! made). [`WebWorld::fetch`] is the single entry point both $heriff's
//! fan-out and the crawler use.

use crate::http::{Request, Response};
use crate::server::RetailerServer;
use pd_currency::FxSeries;
use pd_net::geo::Location;
use pd_net::host::{HostId, HostRegistry};
use pd_net::ip::{GeoIpDb, IpAllocator};
use pd_pricing::RetailerSpec;
use pd_util::Seed;
use std::collections::HashMap;
use std::net::Ipv4Addr;

// (failure injection uses keyed hashing from `Seed`; no RNG state)

/// The simulated web: servers, DNS, geo-IP, FX.
#[derive(Debug)]
pub struct WebWorld {
    hosts: HostRegistry,
    servers: Vec<RetailerServer>,
    geoip: GeoIpDb,
    addr_city: HashMap<Ipv4Addr, Location>,
    alloc: IpAllocator,
    fx: FxSeries,
    /// Transient-failure probability per fetch (keyed hash — a given
    /// (client, uri, second) either fails or succeeds, deterministically,
    /// and succeeds on retry a second later). Zero by default.
    failure_rate: f64,
    failure_seed: Seed,
}

impl WebWorld {
    /// Builds the world from retailer specs, one server after another.
    /// `fx_days` bounds the simulated horizon (the paper's window is 151
    /// days, Jan–May 2013).
    #[must_use]
    pub fn build(seed: Seed, specs: Vec<RetailerSpec>, fx_days: usize) -> Self {
        let servers = specs
            .into_iter()
            .map(|spec| RetailerServer::new(seed, spec))
            .collect();
        Self::from_servers(seed, servers, fx_days)
    }

    /// Wires already-built servers into a world, registering their hosts
    /// in the given order. Each [`RetailerServer::new`] is a pure function
    /// of the seed and its spec, so a caller may build the servers in
    /// parallel and get the world [`WebWorld::build`] would give.
    #[must_use]
    pub fn from_servers(seed: Seed, servers: Vec<RetailerServer>, fx_days: usize) -> Self {
        let mut hosts = HostRegistry::new();
        for (i, server) in servers.iter().enumerate() {
            let id = hosts.register(&server.spec().domain);
            debug_assert_eq!(id.index(), i, "dense server ids");
        }
        WebWorld {
            hosts,
            servers,
            geoip: GeoIpDb::new(),
            addr_city: HashMap::new(),
            alloc: IpAllocator::new(),
            fx: FxSeries::generate(seed, fx_days),
            failure_rate: 0.0,
            failure_seed: seed.derive("transient-failures"),
        }
    }

    /// Enables transient fetch failures at the given rate (failure
    /// injection for the crawler's retry logic). Failures are
    /// deterministic in (client, uri, second) and clear on retry.
    pub fn set_failure_rate(&mut self, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "rate out of range: {rate}");
        self.failure_rate = rate;
    }

    /// Whether a fetch at this instant transiently fails.
    fn transiently_fails(&self, req: &Request) -> bool {
        if self.failure_rate == 0.0 {
            return false;
        }
        let key = self
            .failure_seed
            .derive(&req.host)
            .derive(&req.path)
            .derive_idx(u64::from(u32::from(req.client_addr)))
            .derive_idx(req.time.as_millis() / 1000);
        let u = (key.value() >> 11) as f64 / (1u64 << 53) as f64;
        u < self.failure_rate
    }

    /// Allocates a client address at `location`, registering it in the
    /// city-granularity geo table.
    pub fn allocate_client(&mut self, location: &Location) -> Ipv4Addr {
        let addr = self.alloc.allocate(location.country);
        self.addr_city.insert(addr, location.clone());
        addr
    }

    /// Resolves an address the way retailers do: exact city entry if the
    /// access network registered one, else country-level geo-IP with an
    /// unknown city.
    #[must_use]
    pub fn resolve_client(&self, addr: Ipv4Addr) -> Option<Location> {
        if let Some(loc) = self.addr_city.get(&addr) {
            return Some(loc.clone());
        }
        self.geoip
            .lookup(addr)
            .map(|country| Location::new(country, "Unknown"))
    }

    /// The shared FX series (analysis uses the same market data the
    /// retailers localized with, as the paper did).
    #[must_use]
    pub fn fx(&self) -> &FxSeries {
        &self.fx
    }

    /// Host registry (diagnostics, domain enumeration).
    #[must_use]
    pub fn hosts(&self) -> &HostRegistry {
        &self.hosts
    }

    /// All servers, dense by [`HostId`].
    #[must_use]
    pub fn servers(&self) -> &[RetailerServer] {
        &self.servers
    }

    /// Server of a host id.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    #[must_use]
    pub fn server(&self, id: HostId) -> &RetailerServer {
        &self.servers[id.index()]
    }

    /// Server by domain name.
    #[must_use]
    pub fn server_by_domain(&self, domain: &str) -> Option<&RetailerServer> {
        self.hosts.resolve(domain).map(|id| self.server(id))
    }

    /// Performs one fetch: DNS + geo-IP + the retailer's handler.
    ///
    /// Unknown hosts return 404 (the simulation's NXDOMAIN); with
    /// failure injection enabled, a fetch may transiently 500 — retrying
    /// at a later second succeeds.
    #[must_use]
    pub fn fetch(&self, req: &Request) -> Response {
        if self.transiently_fails(req) {
            return Response::service_unavailable("transient upstream failure (injected)");
        }
        let Some(host) = self.hosts.resolve(&req.host) else {
            return Response::not_found();
        };
        let location = self.resolve_client(req.client_addr);
        self.servers[host.index()].handle(req, location.as_ref(), &self.fx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_net::clock::SimTime;
    use pd_net::geo::Country;
    use pd_pricing::{filler_retailers, paper_retailers};

    fn world() -> WebWorld {
        let seed = Seed::new(1307);
        let mut specs = paper_retailers(seed);
        specs.extend(filler_retailers(seed, 20));
        WebWorld::build(seed, specs, 160)
    }

    #[test]
    fn hosts_resolve_to_servers() {
        let w = world();
        assert_eq!(w.servers().len(), 50);
        let s = w.server_by_domain("www.amazon.com").unwrap();
        assert_eq!(s.spec().domain, "www.amazon.com");
        assert!(w.server_by_domain("nope.example").is_none());
    }

    #[test]
    fn fetch_unknown_host_is_404() {
        let mut w = world();
        let addr = w.allocate_client(&Location::new(Country::Spain, "Barcelona"));
        let req = Request::get("no-such.example", "/", addr, SimTime::EPOCH);
        assert_eq!(w.fetch(&req).status.code(), 404);
    }

    #[test]
    fn client_resolution_prefers_city_entry() {
        let mut w = world();
        let loc = Location::new(Country::UnitedStates, "Lincoln");
        let addr = w.allocate_client(&loc);
        assert_eq!(w.resolve_client(addr), Some(loc));
        // An unregistered address in a known block resolves to country
        // with unknown city.
        let foreign = std::net::Ipv4Addr::new(10, 0, 77, 77);
        let resolved = w.resolve_client(foreign).unwrap();
        assert_eq!(resolved.country, Country::UnitedStates);
        assert_eq!(resolved.city.name, "Unknown");
    }

    #[test]
    fn end_to_end_fetch_renders_localized_page() {
        let mut w = world();
        let fi = w.allocate_client(&Location::new(Country::Finland, "Tampere"));
        let slug = w
            .server_by_domain("www.digitalrev.com")
            .unwrap()
            .catalog()
            .iter()
            .next()
            .unwrap()
            .slug
            .clone();
        let req = Request::get(
            "www.digitalrev.com",
            &format!("/product/{slug}"),
            fi,
            SimTime::EPOCH,
        );
        let resp = w.fetch(&req);
        assert_eq!(resp.status.code(), 200);
        assert!(resp.body.contains('€'), "Finnish visitor sees EUR");
    }

    #[test]
    fn fetch_is_deterministic() {
        let mut w = world();
        let addr = w.allocate_client(&Location::new(Country::Germany, "Berlin"));
        let slug = w
            .server_by_domain("www.energie.it")
            .unwrap()
            .catalog()
            .iter()
            .next()
            .unwrap()
            .slug
            .clone();
        let req = Request::get(
            "www.energie.it",
            &format!("/product/{slug}"),
            addr,
            SimTime::from_millis(12345),
        );
        assert_eq!(w.fetch(&req).body, w.fetch(&req).body);
    }

    #[test]
    fn failure_injection_is_transient_and_deterministic() {
        let mut w = world();
        w.set_failure_rate(0.5);
        let addr = w.allocate_client(&Location::new(Country::Spain, "Barcelona"));
        let slug = w
            .server_by_domain("www.digitalrev.com")
            .unwrap()
            .catalog()
            .iter()
            .next()
            .unwrap()
            .slug
            .clone();
        let mut failed_at = None;
        for s in 0..50u64 {
            let req = Request::get(
                "www.digitalrev.com",
                &format!("/product/{slug}"),
                addr,
                SimTime::from_millis(s * 1000),
            );
            let r1 = w.fetch(&req);
            let r2 = w.fetch(&req);
            // Deterministic: same request, same outcome.
            assert_eq!(r1.status, r2.status);
            if r1.status.code() != 200 {
                failed_at = Some(s);
            }
        }
        let s = failed_at.expect("50% rate must fail somewhere in 50 tries");
        // Transient: a retry 30 s later succeeds eventually.
        let recovered = (1..60u64).any(|d| {
            let req = Request::get(
                "www.digitalrev.com",
                &format!("/product/{slug}"),
                addr,
                SimTime::from_millis((s + d) * 1000),
            );
            w.fetch(&req).status.code() == 200
        });
        assert!(recovered);
    }

    #[test]
    #[should_panic(expected = "rate out of range")]
    fn failure_rate_validated() {
        let mut w = world();
        w.set_failure_rate(1.5);
    }

    #[test]
    fn identical_worlds_from_identical_seeds() {
        let w1 = world();
        let w2 = world();
        for (a, b) in w1.servers().iter().zip(w2.servers()) {
            assert_eq!(a.spec(), b.spec());
            assert_eq!(a.catalog().len(), b.catalog().len());
        }
    }
}
