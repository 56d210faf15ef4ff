//! How one scope reads the copies of one page.
//!
//! Every price in the pipeline comes from one step: a page is
//! highlighted, and the same page is then read again from other vantage
//! points or other identities. [`PageReader`] is that step for one
//! scope: [`crate::Sheriff::check`] (scope: one check, with the crowd
//! user's own copy first), [`PageReader::own_page_price`]'s callers in
//! [`crate::personas`] (scope: one persona domain, one login row), the
//! factor attribution in `pd-analysis` (scope: one product) and
//! `pd-core`'s cleaning refetch (scope: one fetch) and tax check (scope:
//! one domain's two product pages). It owns the scope's two reuse
//! rules and counts them in a [`CopyTally`].
//!
//! **One extraction per distinct copy.** A fetched page's body depends
//! on what the server prices by (product, location, session, day, …),
//! never on which request attributes merely *ride* along, so many
//! fetches of one scope return byte-identical copies: the Spain and US
//! probes of a country-keyed check, the affluent and budget personas of
//! one product, the city and login probes of a retailer that ignores
//! them. Extraction is a pure function of the extractor, the body and
//! the locale hint, and the hint depends only on the country; so a copy
//! from the same country with the same bytes as an earlier one extracts
//! to exactly what that one did. Bodies are compared whole, not hashed,
//! and the memo is dropped with its scope.
//!
//! **One parse from where copies differ.** The distinct copies of one
//! scope still share most of their bytes: the same page up to the first
//! price string. So the reader keeps its last parsed 200 copy
//! ([`pd_html::LastParse`]) and parses each later one only from where
//! the two differ, which builds exactly the document a fresh parse
//! builds. A vantage copy is parsed only until the highlight's anchor
//! target has closed; the crowd user's own copy and every probe copy are
//! parsed whole. The user's own copy is the scope's first parse, so the
//! check's first vantage copy already resumes from it.

use crate::measurement::PriceObservation;
use pd_currency::{Locale, Price};
use pd_extract::{ExtractError, Extracted, HighlightExtractor};
use pd_html::{LastParse, Selector};
use pd_net::clock::SimTime;
use pd_net::geo::Country;
use pd_net::vantage::VantagePoint;
use pd_web::{Request, Response, WebWorld};
use std::iter::Sum;
use std::net::Ipv4Addr;
use std::ops::AddAssign;

/// How many copies a scope was handed, how many of them it extracted
/// (the rest reused an earlier extraction), and how many of its parses
/// resumed the parse of the copy before them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyTally {
    /// Copies handed to the reader (a crowd user's own copy is not one).
    pub copies: u64,
    /// Copies whose extraction actually ran.
    pub extracted: u64,
    /// Parses that resumed from a checkpoint of the scope's last parsed
    /// copy ([`pd_html::LastParse`]) rather than starting over; every
    /// kind of read resumes.
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

/// The reader of one scope's copies of a page: the distinct 200 copies
/// it was handed, each with its extraction (a [`PriceObservation`] for a
/// check, an `Option<Price>` for a probe), and its last parse.
///
/// Every copy handed in must be extracted by the same function of
/// `(country, body)` (one extractor or highlight per scope). A non-200
/// copy is always extracted and never stored, so a failure is never
/// reused, not even by a failure with the same body; it is never parsed
/// either, so it is never a resume base.
#[derive(Debug)]
pub struct PageReader<T> {
    seen: Vec<(Country, String, T)>,
    last: LastParse,
    /// Copies and extractions; the resumed parses are `last`'s.
    tally: CopyTally,
}

impl<T> Default for PageReader<T> {
    fn default() -> Self {
        PageReader {
            seen: Vec::new(),
            last: LastParse::new(),
            tally: CopyTally::default(),
        }
    }
}

impl<T: Clone> PageReader<T> {
    /// An empty scope.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies handed in, copies extracted and parses resumed so far.
    #[must_use]
    pub fn tally(&self) -> CopyTally {
        CopyTally {
            resumed: self.last.resumed(),
            ..self.tally
        }
    }

    /// The extraction of an earlier 200 copy from `country` with `resp`'s
    /// exact body bytes, or `extract(&resp, last parse)`, stored when
    /// `resp` is a 200.
    fn reuse_or_extract(
        &mut self,
        country: Country,
        resp: Response,
        extract: impl FnOnce(&Response, &mut LastParse) -> T,
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
        let value = extract(&resp, &mut self.last);
        if ok {
            self.seen.push((country, resp.body, value.clone()));
        }
        value
    }
}

impl PageReader<PriceObservation> {
    /// A crowd user in `country` highlights `highlight` on their own copy
    /// of the page: the copy is parsed whole, and its checkpoints seed
    /// the parses of the check's vantage copies. The highlight captured
    /// on it, and the price the user sees; `None` for a non-200 copy or a
    /// page the highlight does not resolve on.
    ///
    /// The own copy is not one of the check's copies: it is neither
    /// counted nor stored.
    pub fn own_copy(
        &mut self,
        resp: &Response,
        highlight: &Selector,
        country: Country,
    ) -> Option<(HighlightExtractor, Option<Price>)> {
        if resp.status.code() != 200 {
            return None;
        }
        let doc = self.last.parse_whole(&resp.body);
        let extractor = HighlightExtractor::from_highlight(doc, highlight)?;
        let price = extractor
            .extract(doc, Some(Locale::of_country(country)))
            .ok()
            .map(|e| e.price);
        Some((extractor, price))
    }

    /// `vp`'s copy of a check replayed with `extractor`: parsed only
    /// until the highlight's anchor target has closed, which gives what
    /// the whole page would (a copy the anchor does not resolve on is
    /// parsed whole), and only from where it differs from the scope's
    /// last parsed copy. A copy that repeats an earlier one takes its
    /// observation under `vp`'s id. `extractor` must be the same for
    /// every vantage copy of the scope.
    pub fn vantage_copy(
        &mut self,
        vp: &VantagePoint,
        resp: Response,
        extractor: &HighlightExtractor,
    ) -> PriceObservation {
        let observation = self.reuse_or_extract(vp.location.country, resp, |resp, last| {
            extract_copy(resp, vp, |html, hint| {
                extractor.extract(extractor.path().parse_prefix_after(html, last), hint)
            })
        });
        PriceObservation {
            vantage: vp.id,
            ..observation
        }
    }
}

impl PageReader<Option<Price>> {
    /// The price a user in `country` would highlight on their own copy of
    /// `domain`'s page for `slug`, fetched from `addr` at `time` with
    /// `cookies`: the page is parsed whole, `highlight` picks the price
    /// node and the country's locale reads it. `None` for a non-200 copy
    /// or a page the highlight does not resolve on.
    ///
    /// A page already extracted in this scope from the same country is
    /// not parsed again, and a new one is parsed from where it differs
    /// from the scope's last parsed copy. The scope must only ever see
    /// this `highlight`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn own_page_price(
        &mut self,
        world: &WebWorld,
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
        self.reuse_or_extract(country, world.fetch(&req), |resp, last| {
            if resp.status.code() != 200 {
                return None;
            }
            let doc = last.parse_whole(&resp.body);
            let ex = HighlightExtractor::from_highlight(doc, highlight)?;
            ex.extract(doc, Some(Locale::of_country(country)))
                .ok()
                .map(|e| e.price)
        })
    }
}

/// Replays the highlight on one fetched copy with `extract`, given the
/// body and the vantage point's country as the locale hint.
pub(crate) fn extract_copy(
    resp: &Response,
    vp: &VantagePoint,
    extract: impl FnOnce(&str, Option<Locale>) -> Result<Extracted, ExtractError>,
) -> PriceObservation {
    if resp.status.code() != 200 {
        return PriceObservation::failed(vp.id, format!("http {}", resp.status.code()));
    }
    match extract(&resp.body, Some(Locale::of_country(vp.location.country))) {
        Ok(ex) => PriceObservation::ok(vp.id, ex.price, ex.raw_text),
        Err(e) => PriceObservation::failed(vp.id, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands `copies` a copy and reports whether it was extracted.
    fn extracted(copies: &mut PageReader<String>, country: Country, resp: Response) -> bool {
        let mut ran = false;
        copies.reuse_or_extract(country, resp, |r, _| {
            ran = true;
            r.body.clone()
        });
        ran
    }

    #[test]
    fn same_country_same_bytes_is_extracted_once() {
        let mut copies = PageReader::new();
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
        let mut copies = PageReader::new();
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
        let mut copies = PageReader::new();
        let page = || Response::ok("<p>€7</p>".to_owned());
        let first = copies.reuse_or_extract(Country::Germany, page(), |_, _| 1);
        let second = copies.reuse_or_extract(Country::Germany, page(), |_, _| 2);
        assert_eq!((first, second), (1, 1));
    }
}
