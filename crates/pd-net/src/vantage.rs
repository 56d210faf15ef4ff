//! Measurement vantage points.
//!
//! $heriff fans every price check out to 14 vantage points (Sec. 3.1).
//! Fig. 7 names them: Belgium (Liège), Brazil (São Paulo), Finland
//! (Tampere), Germany (Berlin), three probes in Spain differing only in
//! platform (Linux/Firefox, Mac/Safari, Windows/Chrome), UK (London), and
//! six US cities (Boston, Chicago, Lincoln, Los Angeles, New York,
//! Albany). The triple-Spain setup is the paper's control for system
//! effects: same location, different OS/browser.

use crate::geo::{Country, Location};
use crate::ip::IpAllocator;
use pd_util::VantageId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// Operating system of a probe or user machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Os {
    Linux,
    MacOs,
    Windows,
}

/// Browser of a probe or user machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Browser {
    Firefox,
    Chrome,
    Safari,
}

/// An OS/browser pair; rendered into the `User-Agent` request header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Platform {
    /// Operating system.
    pub os: Os,
    /// Browser.
    pub browser: Browser,
}

impl Platform {
    /// Linux + Firefox, the baseline probe platform.
    pub const LINUX_FIREFOX: Platform = Platform {
        os: Os::Linux,
        browser: Browser::Firefox,
    };
    /// macOS + Safari.
    pub const MAC_SAFARI: Platform = Platform {
        os: Os::MacOs,
        browser: Browser::Safari,
    };
    /// Windows + Chrome.
    pub const WIN_CHROME: Platform = Platform {
        os: Os::Windows,
        browser: Browser::Chrome,
    };

    /// A 2013-plausible `User-Agent` string for this platform.
    #[must_use]
    pub fn user_agent(self) -> &'static str {
        match (self.os, self.browser) {
            (Os::Linux, Browser::Firefox) => {
                "Mozilla/5.0 (X11; Linux x86_64; rv:21.0) Gecko/20100101 Firefox/21.0"
            }
            (Os::MacOs, Browser::Firefox) => {
                "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_8_3; rv:21.0) Gecko/20100101 Firefox/21.0"
            }
            (Os::Windows, Browser::Firefox) => {
                "Mozilla/5.0 (Windows NT 6.1; WOW64; rv:21.0) Gecko/20100101 Firefox/21.0"
            }
            (Os::Linux, Browser::Chrome) => {
                "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/27.0.1453.110 Safari/537.36"
            }
            (Os::MacOs, Browser::Chrome) => {
                "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_8_3) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/27.0.1453.110 Safari/537.36"
            }
            (Os::Windows, Browser::Chrome) => {
                "Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/27.0.1453.110 Safari/537.36"
            }
            (Os::Linux, Browser::Safari) => {
                "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/536.28.10 (KHTML, like Gecko) Version/6.0.3 Safari/536.28.10"
            }
            (Os::MacOs, Browser::Safari) => {
                "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_8_3) AppleWebKit/536.28.10 (KHTML, like Gecko) Version/6.0.3 Safari/536.28.10"
            }
            (Os::Windows, Browser::Safari) => {
                "Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/536.28.10 (KHTML, like Gecko) Version/6.0.3 Safari/536.28.10"
            }
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let os = match self.os {
            Os::Linux => "Linux",
            Os::MacOs => "Mac",
            Os::Windows => "Win",
        };
        let br = match self.browser {
            Browser::Firefox => "FF",
            Browser::Chrome => "Chrome",
            Browser::Safari => "Safari",
        };
        write!(f, "{os},{br}")
    }
}

/// One measurement vantage point: a machine at a fixed location with a
/// fixed platform and a stable client IP address.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VantagePoint {
    /// Dense vantage-point id.
    pub id: VantageId,
    /// Where the probe sits.
    pub location: Location,
    /// OS/browser it presents.
    pub platform: Platform,
    /// Its client IP (geo-locates to `location.country`).
    pub addr: Ipv4Addr,
}

impl VantagePoint {
    /// Label as it appears on the x-axis of Fig. 7, e.g.
    /// `"Finland - Tampere"` or `"Spain (Linux,FF)"`.
    #[must_use]
    pub fn label(&self) -> String {
        if self.location.country == Country::Spain {
            format!("Spain ({})", self.platform)
        } else {
            self.location.to_string()
        }
    }
}

/// Builds the paper's 14 vantage points, allocating each an address from
/// `alloc`.
///
/// Ordering is stable: alphabetical by the Fig. 7 label, exactly the
/// order in which the figure lists them. `VantageId`s are assigned
/// densely in that order.
#[must_use]
pub fn paper_vantage_points(alloc: &mut IpAllocator) -> Vec<VantagePoint> {
    let spec: [(Country, &str, Platform); 14] = [
        (Country::Belgium, "Liege", Platform::LINUX_FIREFOX),
        (Country::Brazil, "Sao Paulo", Platform::LINUX_FIREFOX),
        (Country::Finland, "Tampere", Platform::LINUX_FIREFOX),
        (Country::Germany, "Berlin", Platform::LINUX_FIREFOX),
        (Country::Spain, "Barcelona", Platform::LINUX_FIREFOX),
        (Country::Spain, "Barcelona", Platform::MAC_SAFARI),
        (Country::Spain, "Barcelona", Platform::WIN_CHROME),
        (Country::UnitedKingdom, "London", Platform::LINUX_FIREFOX),
        (Country::UnitedStates, "Boston", Platform::LINUX_FIREFOX),
        (Country::UnitedStates, "Chicago", Platform::LINUX_FIREFOX),
        (Country::UnitedStates, "Lincoln", Platform::LINUX_FIREFOX),
        (
            Country::UnitedStates,
            "Los Angeles",
            Platform::LINUX_FIREFOX,
        ),
        (Country::UnitedStates, "New York", Platform::LINUX_FIREFOX),
        (Country::UnitedStates, "Albany", Platform::LINUX_FIREFOX),
    ];
    spec.iter()
        .enumerate()
        .map(|(i, (country, city, platform))| VantagePoint {
            id: VantageId::new(i as u32),
            location: Location::new(*country, city),
            platform: *platform,
            addr: alloc.allocate(*country),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_14_vantage_points() {
        let mut alloc = IpAllocator::new();
        let vps = paper_vantage_points(&mut alloc);
        assert_eq!(vps.len(), 14);
    }

    #[test]
    fn three_spain_probes_differ_only_in_platform() {
        let mut alloc = IpAllocator::new();
        let vps = paper_vantage_points(&mut alloc);
        let spain: Vec<_> = vps
            .iter()
            .filter(|v| v.location.country == Country::Spain)
            .collect();
        assert_eq!(spain.len(), 3);
        let platforms: std::collections::HashSet<_> = spain.iter().map(|v| v.platform).collect();
        assert_eq!(platforms.len(), 3);
        assert!(spain.windows(2).all(|w| w[0].location == w[1].location));
    }

    #[test]
    fn six_us_cities() {
        let mut alloc = IpAllocator::new();
        let vps = paper_vantage_points(&mut alloc);
        let us: Vec<_> = vps
            .iter()
            .filter(|v| v.location.country == Country::UnitedStates)
            .collect();
        assert_eq!(us.len(), 6);
        let cities: std::collections::HashSet<_> =
            us.iter().map(|v| v.location.city.name.clone()).collect();
        assert_eq!(cities.len(), 6);
    }

    #[test]
    fn labels_match_fig7() {
        let mut alloc = IpAllocator::new();
        let vps = paper_vantage_points(&mut alloc);
        let labels: Vec<String> = vps.iter().map(VantagePoint::label).collect();
        assert!(labels.contains(&"Belgium - Liege".to_string()));
        assert!(labels.contains(&"Spain (Linux,FF)".to_string()));
        assert!(labels.contains(&"Spain (Mac,Safari)".to_string()));
        assert!(labels.contains(&"Spain (Win,Chrome)".to_string()));
        assert!(labels.contains(&"USA - Lincoln".to_string()));
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut alloc = IpAllocator::new();
        let vps = paper_vantage_points(&mut alloc);
        for (i, vp) in vps.iter().enumerate() {
            assert_eq!(vp.id.index(), i);
        }
    }

    #[test]
    fn addresses_geolocate_to_own_country() {
        use crate::ip::GeoIpDb;
        let mut alloc = IpAllocator::new();
        let db = GeoIpDb::new();
        for vp in paper_vantage_points(&mut alloc) {
            assert_eq!(db.lookup(vp.addr), Some(vp.location.country));
        }
    }

    #[test]
    fn user_agents_match_the_os_browser_composition() {
        for os in [Os::Linux, Os::MacOs, Os::Windows] {
            for browser in [Browser::Firefox, Browser::Chrome, Browser::Safari] {
                let os_token = match os {
                    Os::Linux => "X11; Linux x86_64",
                    Os::MacOs => "Macintosh; Intel Mac OS X 10_8_3",
                    Os::Windows => "Windows NT 6.1; WOW64",
                };
                let expected = match browser {
                    Browser::Firefox => format!(
                        "Mozilla/5.0 ({os_token}; rv:21.0) Gecko/20100101 Firefox/21.0"
                    ),
                    Browser::Chrome => format!(
                        "Mozilla/5.0 ({os_token}) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/27.0.1453.110 Safari/537.36"
                    ),
                    Browser::Safari => format!(
                        "Mozilla/5.0 ({os_token}) AppleWebKit/536.28.10 (KHTML, like Gecko) Version/6.0.3 Safari/536.28.10"
                    ),
                };
                assert_eq!(Platform { os, browser }.user_agent(), expected);
            }
        }
    }

    #[test]
    fn user_agents_are_distinct_per_platform() {
        let uas: std::collections::HashSet<_> = [
            Platform::LINUX_FIREFOX,
            Platform::MAC_SAFARI,
            Platform::WIN_CHROME,
        ]
        .iter()
        .map(|p| p.user_agent())
        .collect();
        assert_eq!(uas.len(), 3);
        assert!(Platform::LINUX_FIREFOX.user_agent().contains("Firefox"));
        assert!(Platform::WIN_CHROME.user_agent().contains("Chrome"));
    }
}
