//! `Locale::write_price` — the allocation-free formatter behind `format`
//! and `format_price` — writes exactly what the string-building
//! formatter it replaced wrote, in every country's locale: zero,
//! sub-unit, negative, whole-yen and ≥ 10^12-minor-unit amounts
//! included. The old formatter is kept here as the reference.

use pd_currency::locale::SymbolPosition;
use pd_currency::{Locale, Price};
use pd_net::geo::Country;
use pd_util::Money;
use proptest::prelude::*;

/// The formatter as it was before `write_price`: group the major digits
/// of a `to_string`, then append the separator and two minor digits.
fn reference_format(locale: &Locale, amount: Money) -> String {
    let negative = amount.to_minor() < 0;
    let major = amount.major().unsigned_abs();
    let minor = amount.minor_part();
    let mut int_part = String::new();
    let digits = major.to_string();
    let len = digits.len();
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (len - i).is_multiple_of(3) {
            int_part.push(locale.group_sep);
        }
        int_part.push(ch);
    }
    let body = if locale.currency.decimals() == 0 {
        int_part
    } else {
        format!("{int_part}{}{minor:02}", locale.decimal_sep)
    };
    let digits = if negative { format!("-{body}") } else { body };
    let symbol = locale.currency.symbol();
    match locale.symbol_pos {
        SymbolPosition::Before => format!("{symbol}{digits}"),
        SymbolPosition::AfterWithNbsp => format!("{digits}\u{a0}{symbol}"),
        SymbolPosition::After => format!("{digits}{symbol}"),
    }
}

/// `write_price` appends (keeping what `out` held), and `format` /
/// `format_price` return the same text.
fn assert_matches_reference(country: Country, minor: i64) {
    let locale = Locale::of_country(country);
    let amount = Money::from_minor(minor);
    let expected = reference_format(&locale, amount);
    let mut out = String::from("keep:");
    locale.write_price(Price::new(amount, locale.currency), &mut out);
    assert_eq!(&out[5..], expected, "{country:?} {minor}");
    assert_eq!(out[..5], *"keep:");
    assert_eq!(locale.format(amount), expected, "{country:?} {minor}");
    assert_eq!(
        locale.format_price(Price::new(amount, locale.currency)),
        expected,
        "{country:?} {minor}"
    );
}

#[test]
fn edge_amounts_match_the_reference_in_every_locale() {
    let edges = [
        0,
        1,
        9,
        10,
        99,
        100,
        999,
        1_000,
        99_999,
        100_000,
        123_456,
        -1,
        -50,
        -99,
        -100,
        -1_099,
        -123_456_789,
        1_000_000_000_000,
        999_999_999_999_999,
        i64::MAX,
        i64::MIN,
    ];
    for &country in &Country::ALL {
        for &minor in &edges {
            assert_matches_reference(country, minor);
        }
    }
}

#[test]
fn whole_yen_render_without_decimals() {
    let jp = Locale::of_country(Country::Japan);
    assert_eq!(jp.format(Money::from_major_minor(1_235, 0)), "¥1,235");
    // The minor part is dropped, as it always was.
    assert_eq!(jp.format(Money::from_minor(123_599)), "¥1,235");
}

#[test]
#[should_panic(expected = "locale/currency mismatch")]
fn write_price_rejects_a_currency_mismatch() {
    let de = Locale::of_country(Country::Germany);
    let usd = Locale::of_country(Country::UnitedStates).currency;
    de.write_price(Price::new(Money::from_minor(100), usd), &mut String::new());
}

proptest! {
    #[test]
    fn prop_write_price_matches_reference(
        country_idx in 0usize..Country::ALL.len(),
        small in -100_000i64..100_000,
        large in 0i64..i64::MAX,
        scale in 0u32..4,
    ) {
        let country = Country::ALL[country_idx];
        // Small amounts around zero and sub-unit, and large ones from
        // thousands up to ≥ 10^12 minor units, of either sign.
        assert_matches_reference(country, small);
        let large = large >> (scale * 16);
        assert_matches_reference(country, large);
        assert_matches_reference(country, -large);
    }
}
