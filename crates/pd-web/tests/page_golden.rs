//! Golden digest of the page round trip.
//!
//! For every template family × 14 client countries × 2 products, the
//! digest covers the served product page, its token stream and its
//! parse → serialize normal form (`to_html(parse(page))`). The pinned
//! value was computed with the DOM-building renderer, owned tokens and
//! the per-node DOM; the string-sink renderer, borrowed tokens and the
//! span-buffer DOM must reproduce it exactly.

use pd_currency::FxSeries;
use pd_html::token::{tokenize, Token};
use pd_html::{parse, NodeId};
use pd_net::clock::SimTime;
use pd_net::geo::{Country, Location};
use pd_pricing::{filler_retailers, paper_retailers, RetailerSpec};
use pd_util::Seed;
use pd_web::template::FAMILY_COUNT;
use pd_web::{Request, RetailerServer};
use std::fmt::Write;
use std::net::Ipv4Addr;

const GOLDEN_DIGEST: u64 = 0x6474_9507_734a_69b5;

/// FNV-1a, 64 bit: dependency-free and stable across platforms.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// One line per token, independent of how the token type stores text.
fn token_lines(html: &str) -> String {
    let mut out = String::new();
    for token in tokenize(html) {
        match token {
            Token::Doctype(d) => writeln!(out, "D {d:?}"),
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                write!(out, "S {name} {self_closing}").unwrap();
                for a in &attrs {
                    write!(out, " {}={:?}", a.name, a.value).unwrap();
                }
                writeln!(out)
            }
            Token::EndTag { name } => writeln!(out, "E {name}"),
            Token::Text(t) => writeln!(out, "T {t:?}"),
            Token::Comment(c) => writeln!(out, "C {c:?}"),
        }
        .unwrap();
    }
    out
}

/// The first retailer of each template family.
fn one_server_per_family(seed: Seed) -> Vec<RetailerServer> {
    let specs: Vec<RetailerSpec> = paper_retailers(seed)
        .into_iter()
        .chain(filler_retailers(seed, 570))
        .collect();
    (0..FAMILY_COUNT)
        .map(|family| {
            let spec = specs
                .iter()
                .find(|s| s.template_style % FAMILY_COUNT == family)
                .expect("every family has a retailer")
                .clone();
            RetailerServer::new(seed, spec)
        })
        .collect()
}

#[test]
fn served_pages_tokens_and_reparse_match_the_golden_digest() {
    let seed = Seed::new(1307);
    let fx = FxSeries::generate(seed, 160);
    let time = SimTime::from_millis(3 * 24 * 3_600_000 + 9 * 3_600_000);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut pages = 0;
    for server in one_server_per_family(seed) {
        for product in server.catalog().iter().take(2) {
            for (i, &country) in Country::ALL.iter().take(14).enumerate() {
                let location = Location::new(country, "Golden");
                let addr = Ipv4Addr::new(10, 1, 0, u8::try_from(i).unwrap());
                let req = Request::get(
                    &server.spec().domain,
                    &format!("/product/{}", product.slug),
                    addr,
                    time,
                );
                let page = server.handle(&req, Some(&location), &fx).body;
                fnv1a(&mut hash, page.as_bytes());
                fnv1a(&mut hash, token_lines(&page).as_bytes());
                fnv1a(&mut hash, parse(&page).to_html(NodeId::ROOT).as_bytes());
                pages += 1;
            }
        }
    }
    assert_eq!(pages, 5 * 2 * 14);
    assert_eq!(
        hash, GOLDEN_DIGEST,
        "page round trip changed: digest {hash:#018x}"
    );
}
