//! The per-thread document pool behind `pd_html::parse_pooled`: every
//! guard gives its document back (the live count returns to its base
//! after parsing across a scoped executor), nested guards on one thread
//! are independent, and a reused document parses exactly like a fresh
//! one — also when the parse that held it before stopped early
//! (`NodePath::parse_pooled_prefix`). A `LastParse` holds one pooled
//! document across the resumed parses of its copies and gives it back
//! when dropped. One test function, so nothing else in this binary moves
//! the process-wide live count while it is checked.

use pd_core::Executor;
use pd_html::{parse, parse_pooled, pooled_live, LastParse, NodeId, NodePath, Selector};

const PAGES: [&str; 3] = [
    "<!DOCTYPE html><html><body><div id=product><span class=\"price main\">$1,299.00</span>\
     <ul><li>a<li>b</ul><img src=x.png></div><script>if (a < b) {}</script></body></html>",
    "<p>short &euro;5",
    "<table><tr><td class=product-price>1.199,00&nbsp;&euro;<td>x</table><!-- end -->",
];

#[test]
fn pooled_documents_return_to_the_pool_and_parse_like_fresh_ones() {
    let base = pooled_live();

    // Nested guards on one thread hold distinct documents.
    {
        let outer = parse_pooled(PAGES[0]);
        let inner = parse_pooled(PAGES[1]);
        assert_eq!(pooled_live(), base + 2);
        assert_eq!(*outer, parse(PAGES[0]));
        assert_eq!(*inner, parse(PAGES[1]));
        drop(inner);
        // The document just returned is reused for the next parse, which
        // must not see anything of the larger page it held before.
        let reused = parse_pooled(PAGES[2]);
        assert_eq!(*reused, parse(PAGES[2]));
        assert_eq!(
            reused.to_html(NodeId::ROOT),
            parse(PAGES[2]).to_html(NodeId::ROOT)
        );
        assert_eq!(*outer, parse(PAGES[0]), "outer guard untouched");
    }
    assert_eq!(pooled_live(), base);

    // Parsing across a scoped executor: each worker thread warms its own
    // free list, and every guard is returned by the time the scope ends.
    let executor = Executor::new(4);
    let matched = executor.map_indexed(240, |i| {
        let page = PAGES[i % PAGES.len()];
        let doc = parse_pooled(page);
        let nested = parse_pooled(PAGES[(i + 1) % PAGES.len()]);
        *doc == parse(page) && *nested == parse(PAGES[(i + 1) % PAGES.len()])
    });
    assert!(matched.iter().all(|&ok| ok));
    assert_eq!(pooled_live(), base);

    // Early-stopped parses: the highlight of PAGES[0] is anchored on
    // `#product`, so its prefix parse ends after the price's `</span>`.
    let whole = parse(PAGES[0]);
    let price = Selector::parse("#product span").unwrap();
    let path = NodePath::capture(&whole, price.query_first(&whole).unwrap());
    {
        let stopped = path.parse_pooled_prefix(PAGES[0]);
        assert_eq!(pooled_live(), base + 1);
        assert!(stopped.len() < whole.len(), "the prefix parse stopped");
        let hit = path.resolve(&stopped).unwrap();
        assert_eq!(stopped.text_content(hit), "$1,299.00");
    }
    assert_eq!(pooled_live(), base);
    // The document the stopped parse returned holds nothing of it: the
    // next page parses exactly like a fresh one, whether parsed whole or
    // stopped early in turn.
    for page in [PAGES[1], PAGES[2], PAGES[0]] {
        let stopped = path.parse_pooled_prefix(PAGES[0]);
        drop(stopped);
        let reused = parse_pooled(page);
        assert_eq!(*reused, parse(page));
        assert_eq!(
            reused.to_html(NodeId::ROOT),
            parse(page).to_html(NodeId::ROOT)
        );
    }
    assert_eq!(pooled_live(), base);

    // Stopped and whole parses mixed across the executor also all go
    // home.
    let matched = executor.map_indexed(240, |i| {
        let stopped = path.parse_pooled_prefix(PAGES[0]);
        let page = PAGES[i % PAGES.len()];
        let nested = parse_pooled(page);
        stopped.len() < whole.len() && *nested == parse(page)
    });
    assert!(matched.iter().all(|&ok| ok));
    assert_eq!(pooled_live(), base);

    // Resumed parses: a `LastParse` holds one pooled document across the
    // copies it parses, and gives it back when dropped.
    let copies = [
        PAGES[0].to_owned(),
        PAGES[0].replace("$1,299.00", "1.199,00&nbsp;&euro;"),
        PAGES[0].replace("<li>b", "<li>c"),
        PAGES[2].to_owned(),
    ];
    {
        let mut last = LastParse::new();
        assert_eq!(pooled_live(), base, "nothing is checked out before a parse");
        for copy in copies.iter().chain(&copies) {
            let doc = path.parse_prefix_after(copy, &mut last);
            assert_eq!(*doc, *path.parse_pooled_prefix(copy));
            assert_eq!(pooled_live(), base + 1);
        }
        assert!(last.resumed() > 0);
    }
    assert_eq!(pooled_live(), base);

    // One `LastParse` per task across the executor, beside other guards.
    let matched = executor.map_indexed(240, |i| {
        let mut last = LastParse::new();
        let nested = parse_pooled(PAGES[i % PAGES.len()]);
        (0..copies.len()).all(|k| {
            let copy = &copies[(i + k) % copies.len()];
            *path.parse_prefix_after(copy, &mut last) == *path.parse_pooled_prefix(copy)
        }) && *nested == parse(PAGES[i % PAGES.len()])
    });
    assert!(matched.iter().all(|&ok| ok));
    assert_eq!(pooled_live(), base);
}
