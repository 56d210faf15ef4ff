//! HTML entity escaping and unescaping.
//!
//! Price strings travel *into* templates (escaped) and *out of* parsed
//! documents (unescaped). Currency symbols are exactly the characters
//! retail templates love to write as entities (`&euro;`, `&pound;`,
//! `&#8364;`), so the unescaper must handle named, decimal and hex forms —
//! otherwise the extractor would misparse "€1.299,00".

use std::borrow::Cow;

/// Escapes text for use inside an HTML text node.
///
/// Only `&`, `<`, `>` need escaping in text content; we escape quotes too
/// so the same function is safe for attribute values.
#[must_use]
pub fn escape_text(input: &str) -> Cow<'_, str> {
    if !input.contains(['&', '<', '>', '"', '\'']) {
        return Cow::Borrowed(input);
    }
    let mut out = String::with_capacity(input.len() + 8);
    escape_into(input, &mut out);
    Cow::Owned(out)
}

/// Appends [`escape_text`]`(input)` to `out` without an intermediate
/// allocation.
pub(crate) fn escape_into(input: &str, out: &mut String) {
    let mut rest = input;
    while let Some(at) = rest.find(['&', '<', '>', '"', '\'']) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => "&#39;",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// The named entities that occur in retail price markup, plus the HTML
/// basics. Deliberately small: unknown entities pass through verbatim
/// (browser-like leniency).
fn named_entity(name: &str) -> Option<char> {
    Some(match name {
        "amp" => '&',
        "lt" => '<',
        "gt" => '>',
        "quot" => '"',
        "apos" => '\'',
        "nbsp" => '\u{a0}',
        "euro" => '€',
        "pound" => '£',
        "yen" => '¥',
        "cent" => '¢',
        "copy" => '©',
        "reg" => '®',
        "trade" => '™',
        "mdash" => '—',
        "ndash" => '–',
        "hellip" => '…',
        "laquo" => '«',
        "raquo" => '»',
        "times" => '×',
        _ => return None,
    })
}

/// Unescapes HTML entities in `input`.
///
/// Handles named (`&euro;`), decimal (`&#8364;`) and hex (`&#x20AC;`)
/// references. Malformed references are passed through unchanged, as
/// browsers do.
#[must_use]
pub fn unescape(input: &str) -> Cow<'_, str> {
    if !input.contains('&') {
        return Cow::Borrowed(input);
    }
    let mut out = String::with_capacity(input.len());
    unescape_into(input, &mut out);
    Cow::Owned(out)
}

/// Appends [`unescape`]`(input)` to `out` without an intermediate
/// allocation.
pub(crate) fn unescape_into(input: &str, out: &mut String) {
    let mut rest = input;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        // Find the terminating ';' within a sane distance.
        let end = after
            .char_indices()
            .take(32)
            .find(|(_, c)| *c == ';')
            .map(|(off, _)| off);
        match end.and_then(|end| Some((end, decode_entity(&after[..end])?))) {
            Some((end, c)) => {
                out.push(c);
                rest = &after[end + 1..];
            }
            None => {
                out.push('&');
                rest = after;
            }
        }
    }
    out.push_str(rest);
}

fn decode_entity(body: &str) -> Option<char> {
    if let Some(num) = body.strip_prefix('#') {
        let code = if let Some(hex) = num.strip_prefix(['x', 'X']) {
            u32::from_str_radix(hex, 16).ok()?
        } else {
            num.parse::<u32>().ok()?
        };
        char::from_u32(code)
    } else {
        named_entity(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escape_basic() {
        assert_eq!(escape_text("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&#39;");
        assert_eq!(escape_text("plain"), "plain");
        assert!(matches!(escape_text("plain"), Cow::Borrowed(_)));
    }

    #[test]
    fn unescape_named() {
        assert_eq!(unescape("&euro;1.299,00"), "€1.299,00");
        assert_eq!(unescape("&pound;12.99"), "£12.99");
        assert_eq!(unescape("a&amp;b"), "a&b");
        assert_eq!(unescape("x&nbsp;y"), "x\u{a0}y");
    }

    #[test]
    fn unescape_numeric() {
        assert_eq!(unescape("&#8364;5"), "€5");
        assert_eq!(unescape("&#x20AC;5"), "€5");
        assert_eq!(unescape("&#X20ac;5"), "€5");
        assert_eq!(unescape("&#65;"), "A");
    }

    #[test]
    fn unescape_malformed_passes_through() {
        assert_eq!(unescape("AT&T"), "AT&T");
        assert_eq!(unescape("a & b"), "a & b");
        assert_eq!(unescape("&unknown;"), "&unknown;");
        assert_eq!(unescape("&#xZZ;"), "&#xZZ;");
        assert_eq!(unescape("&#1114112;"), "&#1114112;"); // beyond char range
        assert_eq!(unescape("trailing&"), "trailing&");
    }

    #[test]
    fn unescape_no_entities_borrows() {
        assert!(matches!(unescape("no entities"), Cow::Borrowed(_)));
    }

    #[test]
    fn unescape_multibyte_passthrough() {
        assert_eq!(unescape("ほげ€ & ふが"), "ほげ€ & ふが");
    }

    proptest! {
        #[test]
        fn prop_escape_then_unescape_round_trips(s in "\\PC{0,64}") {
            let escaped = escape_text(&s);
            let unescaped = unescape(&escaped);
            prop_assert_eq!(unescaped.as_ref(), s.as_str());
        }

        #[test]
        fn prop_in_place_variants_match(s in "[a-z&;#x0-9<>\"' ]{0,64}") {
            let mut escaped = String::from("keep");
            escape_into(&s, &mut escaped);
            prop_assert_eq!(&escaped[4..], escape_text(&s).as_ref());
            let mut unescaped = String::from("keep");
            unescape_into(&s, &mut unescaped);
            prop_assert_eq!(&unescaped[4..], unescape(&s).as_ref());
        }

        #[test]
        fn prop_unescape_never_panics(s in "\\PC{0,128}") {
            let _ = unescape(&s);
        }

        #[test]
        fn prop_escaped_has_no_raw_specials(s in "\\PC{0,64}") {
            let escaped = escape_text(&s);
            prop_assert!(!escaped.contains('<'));
            prop_assert!(!escaped.contains('>'));
            prop_assert!(!escaped.contains('"'));
        }
    }
}
