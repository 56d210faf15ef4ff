//! One extraction per distinct copy.
//!
//! A fetched page's body depends on what the server prices by (product,
//! location, session, day, …), never on which request attributes merely
//! *ride* along, so many fetches of one scope return byte-identical
//! copies: the Spain and US probes of a country-keyed check, the
//! affluent and budget personas of one product, the city and login
//! probes of a retailer that ignores them. Extraction is a pure function
//! of the extractor, the body and the locale hint, and the hint depends
//! only on the country; so a copy from the same country with the same
//! bytes as an earlier one extracts to exactly what that one did.
//!
//! [`DistinctCopies`] is that rule, the one memo every fan-out and probe
//! site uses: [`crate::Sheriff::check`] (scope: one check),
//! [`own_page_price`]'s callers in [`crate::personas`] (scope: one
//! persona domain, one login row), the factor attribution in
//! `pd-analysis` (scope: one product) and `pd-core`'s cleaning refetch
//! and tax check (scope: one fetch). Bodies are compared whole, not
//! hashed, and the memo is dropped with its scope.
//!
//! The distinct copies of one check still share most of their bytes:
//! the same page up to the first price string. So `Sheriff::check` also
//! keeps its last parsed 200 copy ([`pd_html::LastParse`]) and parses
//! each later distinct copy only from where the two differ; its
//! [`CopyTally`] counts those resumed parses. The probes parse each
//! copy whole and never resume.

use pd_currency::{Locale, Price};
use pd_extract::HighlightExtractor;
use pd_html::Selector;
use pd_net::clock::SimTime;
use pd_net::geo::Country;
use pd_web::{Request, Response, WebWorld};
use std::iter::Sum;
use std::net::Ipv4Addr;
use std::ops::AddAssign;

/// How many copies a scope was handed, how many of them it extracted
/// (the rest reused an earlier extraction), and how many of those
/// extractions resumed the parse of the copy before them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyTally {
    /// Copies handed to [`DistinctCopies::reuse_or_extract`].
    pub copies: u64,
    /// Copies whose extraction actually ran.
    pub extracted: u64,
    /// Extractions whose parse resumed from a checkpoint of the scope's
    /// last parsed copy ([`pd_html::LastParse`]); only
    /// [`crate::Sheriff::check`] resumes.
    pub resumed: u64,
}

impl AddAssign for CopyTally {
    fn add_assign(&mut self, other: CopyTally) {
        self.copies += other.copies;
        self.extracted += other.extracted;
        self.resumed += other.resumed;
    }
}

impl Sum for CopyTally {
    fn sum<I: Iterator<Item = CopyTally>>(iter: I) -> CopyTally {
        let mut sum = CopyTally::default();
        for tally in iter {
            sum += tally;
        }
        sum
    }
}

/// The distinct 200 copies of one scope, each with its extraction.
///
/// Every copy handed in must be extracted by the same function of
/// `(country, body)` (one extractor or highlight per scope). A non-200
/// copy is always extracted and never stored, so a failure is never
/// reused, not even by a failure with the same body.
#[derive(Debug)]
pub struct DistinctCopies<T> {
    seen: Vec<(Country, String, T)>,
    tally: CopyTally,
}

impl<T> Default for DistinctCopies<T> {
    fn default() -> Self {
        DistinctCopies {
            seen: Vec::new(),
            tally: CopyTally::default(),
        }
    }
}

impl<T: Clone> DistinctCopies<T> {
    /// An empty scope.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The extraction of an earlier 200 copy from `country` with `resp`'s
    /// exact body bytes, or `extract(&resp)`, stored when `resp` is a 200.
    pub fn reuse_or_extract(
        &mut self,
        country: Country,
        resp: Response,
        extract: impl FnOnce(&Response) -> T,
    ) -> T {
        self.tally.copies += 1;
        let ok = resp.status.code() == 200;
        if ok {
            let earlier = self
                .seen
                .iter()
                .find(|(c, body, _)| *c == country && *body == resp.body);
            if let Some((_, _, value)) = earlier {
                return value.clone();
            }
        }
        self.tally.extracted += 1;
        let value = extract(&resp);
        if ok {
            self.seen.push((country, resp.body, value.clone()));
        }
        value
    }

    /// Copies handed in and copies extracted so far.
    #[must_use]
    pub fn tally(&self) -> CopyTally {
        self.tally
    }
}

/// The price a user in `country` would highlight on their own copy of
/// `domain`'s page for `slug`, fetched from `addr` at `time` with
/// `cookies`: the page is parsed whole, `highlight` picks the price node
/// and the country's locale reads it. `None` for a non-200 copy or a
/// page the highlight does not resolve on.
///
/// The copy goes through `copies`, so a page already extracted in that
/// scope from the same country is not parsed again; `copies` must only
/// ever see this `highlight`.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn own_page_price(
    world: &WebWorld,
    copies: &mut DistinctCopies<Option<Price>>,
    highlight: &Selector,
    domain: &str,
    slug: &str,
    (addr, country): (Ipv4Addr, Country),
    time: SimTime,
    cookies: &[(&str, &str)],
) -> Option<Price> {
    let mut req = Request::get(domain, &format!("/product/{slug}"), addr, time);
    for (name, value) in cookies {
        req = req.with_cookie(name, value);
    }
    copies.reuse_or_extract(country, world.fetch(&req), |resp| {
        if resp.status.code() != 200 {
            return None;
        }
        let doc = pd_html::parse_pooled(&resp.body);
        let ex = HighlightExtractor::from_highlight(&doc, highlight)?;
        ex.extract(&doc, Some(Locale::of_country(country)))
            .ok()
            .map(|e| e.price)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands `copies` a copy and reports whether it was extracted.
    fn extracted(copies: &mut DistinctCopies<String>, country: Country, resp: Response) -> bool {
        let mut ran = false;
        copies.reuse_or_extract(country, resp, |r| {
            ran = true;
            r.body.clone()
        });
        ran
    }

    #[test]
    fn same_country_same_bytes_is_extracted_once() {
        let mut copies = DistinctCopies::new();
        let page = || Response::ok("<p>$5</p>".to_owned());
        assert!(extracted(&mut copies, Country::Spain, page()));
        assert!(!extracted(&mut copies, Country::Spain, page()));
        // Another country reads the page under another locale.
        assert!(extracted(&mut copies, Country::Finland, page()));
        // One byte apart is another copy.
        let other = Response::ok("<p>$5 </p>".to_owned());
        assert!(extracted(&mut copies, Country::Spain, other));
        assert_eq!(
            copies.tally(),
            CopyTally {
                copies: 4,
                extracted: 3,
                resumed: 0
            }
        );
    }

    #[test]
    fn failed_copies_are_never_stored_or_reused() {
        let mut copies = DistinctCopies::new();
        for _ in 0..3 {
            assert!(extracted(
                &mut copies,
                Country::Spain,
                Response::not_found()
            ));
        }
        assert!(copies.seen.is_empty());
        // A 200 with a failure's body is a copy of its own.
        let body = Response::not_found().body;
        assert!(extracted(&mut copies, Country::Spain, Response::ok(body)));
        assert_eq!(copies.tally().extracted, 4);
    }

    #[test]
    fn reused_values_are_the_earlier_extraction() {
        let mut copies = DistinctCopies::new();
        let page = || Response::ok("<p>€7</p>".to_owned());
        let first = copies.reuse_or_extract(Country::Germany, page(), |_| 1);
        let second = copies.reuse_or_extract(Country::Germany, page(), |_| 2);
        assert_eq!((first, second), (1, 1));
    }
}
