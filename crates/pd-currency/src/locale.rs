//! Locale-specific price rendering and exact parsing.
//!
//! Sec. 3.2 lists "diverse number and date formats across countries" as a
//! leading noise source in the crowdsourced dataset. The simulated
//! retailers render prices with full locale fidelity — "1.234,56 €",
//! "£1,234.56", "1 234,56 zł", "¥1,235" — and the extraction layer must
//! parse them all back *exactly* (to the minor unit), or the currency
//! filter would see phantom variations.

use crate::currency::{Currency, Price};
use pd_net::geo::Country;
use pd_util::Money;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where the currency symbol sits relative to the number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SymbolPosition {
    /// `$1,234.56`
    Before,
    /// `1.234,56 €` (with a non-breaking space)
    AfterWithNbsp,
    /// `1 234,56zł` (no space)
    After,
}

/// A number+currency formatting convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Locale {
    /// Decimal separator (`.` or `,`).
    pub decimal_sep: char,
    /// Thousands separator (`,`, `.`, `\u{a0}` or `' '`).
    pub group_sep: char,
    /// Symbol placement.
    pub symbol_pos: SymbolPosition,
    /// The currency this locale formats.
    pub currency: Currency,
}

/// Error from exact locale parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePriceError {
    /// What failed.
    pub message: String,
    /// The offending input.
    pub input: String,
}

impl fmt::Display for ParsePriceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse price {:?}: {}", self.input, self.message)
    }
}

impl std::error::Error for ParsePriceError {}

impl Locale {
    /// The display locale a geo-located visitor from `country` sees.
    #[must_use]
    pub fn of_country(country: Country) -> Locale {
        let currency = Currency::of_country(country);
        match country {
            Country::UnitedStates | Country::Canada | Country::Australia => Locale {
                decimal_sep: '.',
                group_sep: ',',
                symbol_pos: SymbolPosition::Before,
                currency,
            },
            Country::UnitedKingdom | Country::Ireland => Locale {
                decimal_sep: '.',
                group_sep: ',',
                symbol_pos: SymbolPosition::Before,
                currency,
            },
            Country::Japan => Locale {
                decimal_sep: '.',
                group_sep: ',',
                symbol_pos: SymbolPosition::Before,
                currency,
            },
            Country::Brazil => Locale {
                decimal_sep: ',',
                group_sep: '.',
                symbol_pos: SymbolPosition::Before,
                currency,
            },
            Country::Poland | Country::Sweden => Locale {
                decimal_sep: ',',
                group_sep: '\u{a0}',
                symbol_pos: SymbolPosition::AfterWithNbsp,
                currency,
            },
            // Eurozone: continental convention.
            _ => Locale {
                decimal_sep: ',',
                group_sep: '.',
                symbol_pos: SymbolPosition::AfterWithNbsp,
                currency,
            },
        }
    }

    /// Formats `amount` (in [`Money`] minor units) as this locale renders
    /// it on a product page.
    ///
    /// JPY renders without decimals (amounts are whole yen held in the
    /// `Money` major part).
    #[must_use]
    pub fn format(&self, amount: Money) -> String {
        let mut out = String::with_capacity(24);
        self.write_price(Price::new(amount, self.currency), &mut out);
        out
    }

    /// Formats a [`Price`]; the price's currency must match the locale's.
    ///
    /// # Panics
    ///
    /// Panics on a currency mismatch — templates always format prices in
    /// the locale they selected.
    #[must_use]
    pub fn format_price(&self, price: Price) -> String {
        let mut out = String::with_capacity(24);
        self.write_price(price, &mut out);
        out
    }

    /// Appends [`Locale::format_price`]`(price)` to `out` without an
    /// intermediate allocation — the one formatter behind `format` and
    /// `format_price`.
    ///
    /// # Panics
    ///
    /// Panics on a currency mismatch, as [`Locale::format_price`] does.
    pub fn write_price(&self, price: Price, out: &mut String) {
        assert_eq!(
            price.currency, self.currency,
            "locale/currency mismatch in template"
        );
        let symbol = self.currency.symbol();
        if self.symbol_pos == SymbolPosition::Before {
            out.push_str(symbol);
        }
        self.write_number(price.amount, out);
        match self.symbol_pos {
            SymbolPosition::Before => {}
            SymbolPosition::AfterWithNbsp => {
                out.push('\u{a0}');
                out.push_str(symbol);
            }
            SymbolPosition::After => out.push_str(symbol),
        }
    }

    /// `-1.234,56`: sign, grouped major digits, then (unless the currency
    /// has no decimals) the separator and two minor digits.
    fn write_number(&self, amount: Money, out: &mut String) {
        if amount.to_minor() < 0 {
            out.push('-');
        }
        // Major digits, least significant first (u64 has at most 20).
        let mut digits = [0u8; 20];
        let mut len = 0;
        let mut major = amount.major().unsigned_abs();
        loop {
            digits[len] = b'0' + (major % 10) as u8;
            len += 1;
            major /= 10;
            if major == 0 {
                break;
            }
        }
        for i in 0..len {
            if i > 0 && (len - i).is_multiple_of(3) {
                out.push(self.group_sep);
            }
            out.push(char::from(digits[len - 1 - i]));
        }
        if self.currency.decimals() != 0 {
            let minor = amount.minor_part();
            out.push(self.decimal_sep);
            out.push(char::from(b'0' + minor / 10));
            out.push(char::from(b'0' + minor % 10));
        }
    }

    /// Exact inverse of [`Locale::format`].
    ///
    /// # Errors
    ///
    /// Returns [`ParsePriceError`] when the text does not follow this
    /// locale's convention (wrong symbol, malformed grouping, no digits).
    pub fn parse(&self, text: &str) -> Result<Price, ParsePriceError> {
        let err = |m: &str| ParsePriceError {
            message: m.to_owned(),
            input: text.to_owned(),
        };
        let sym = self.currency.symbol();
        let trimmed = text.trim().trim_matches('\u{a0}');
        let body = match self.symbol_pos {
            SymbolPosition::Before => trimmed
                .strip_prefix(sym)
                .ok_or_else(|| err("missing currency symbol prefix"))?,
            SymbolPosition::AfterWithNbsp | SymbolPosition::After => trimmed
                .strip_suffix(sym)
                .ok_or_else(|| err("missing currency symbol suffix"))?,
        };
        let body = body.trim().trim_matches('\u{a0}');
        let (body, negative) = match body.strip_prefix('-') {
            Some(rest) => (rest, true),
            None => (body, false),
        };
        if body.is_empty() {
            return Err(err("no digits"));
        }

        let (int_text, frac_text) = if self.currency.decimals() == 0 {
            (body, None)
        } else {
            match body.rsplit_once(self.decimal_sep) {
                Some((i, f)) => (i, Some(f)),
                None => (body, None),
            }
        };
        if let Some(f) = frac_text {
            if f.len() != 2 || !f.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err("malformed decimal part"));
            }
        }
        // Validate grouping: digits in groups of ≤3 separated by group_sep,
        // with all groups after the first exactly 3 long.
        let groups: Vec<&str> = int_text.split(self.group_sep).collect();
        if groups.iter().any(|g| g.is_empty()) {
            return Err(err("empty digit group"));
        }
        for (i, g) in groups.iter().enumerate() {
            if !g.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err("non-digit in integer part"));
            }
            if i == 0 {
                if g.len() > 3 && groups.len() > 1 {
                    return Err(err("leading group too long"));
                }
            } else if g.len() != 3 {
                return Err(err("grouping violation"));
            }
        }
        let major: i64 = groups
            .concat()
            .parse()
            .map_err(|_| err("integer overflow"))?;
        let minor: i64 = frac_text.map_or(Ok(0), |f| {
            f.parse::<i64>().map_err(|_| err("bad decimal digits"))
        })?;
        let mut value = major * 100 + minor;
        if negative {
            value = -value;
        }
        Ok(Price::new(Money::from_minor(value), self.currency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn us() -> Locale {
        Locale::of_country(Country::UnitedStates)
    }
    fn de() -> Locale {
        Locale::of_country(Country::Germany)
    }
    fn pl() -> Locale {
        Locale::of_country(Country::Poland)
    }
    fn br() -> Locale {
        Locale::of_country(Country::Brazil)
    }
    fn jp() -> Locale {
        Locale::of_country(Country::Japan)
    }

    #[test]
    fn format_us() {
        assert_eq!(us().format(Money::from_minor(123_456)), "$1,234.56");
        assert_eq!(us().format(Money::from_minor(99)), "$0.99");
        assert_eq!(us().format(Money::from_minor(123_456_789)), "$1,234,567.89");
    }

    #[test]
    fn format_eurozone() {
        assert_eq!(de().format(Money::from_minor(123_456)), "1.234,56\u{a0}€");
        assert_eq!(de().format(Money::from_minor(500)), "5,00\u{a0}€");
    }

    #[test]
    fn format_poland_space_groups() {
        assert_eq!(
            pl().format(Money::from_minor(123_456)),
            "1\u{a0}234,56\u{a0}zł"
        );
    }

    #[test]
    fn format_brazil() {
        assert_eq!(br().format(Money::from_minor(123_456)), "R$1.234,56");
    }

    #[test]
    fn format_jpy_no_decimals() {
        // ¥ amounts: whole yen stored in the major part.
        assert_eq!(jp().format(Money::from_major_minor(1235, 0)), "¥1,235");
    }

    #[test]
    fn format_negative() {
        assert_eq!(us().format(Money::from_minor(-1099)), "$-10.99");
    }

    #[test]
    fn parse_us() {
        let p = us().parse("$1,234.56").unwrap();
        assert_eq!(p.amount, Money::from_minor(123_456));
        assert_eq!(p.currency, Currency::Usd);
    }

    #[test]
    fn parse_eurozone() {
        let p = de().parse("1.234,56\u{a0}€").unwrap();
        assert_eq!(p.amount, Money::from_minor(123_456));
        assert_eq!(p.currency, Currency::Eur);
    }

    #[test]
    fn parse_tolerates_plain_space_before_symbol() {
        let p = de()
            .parse("1.234,56 €".replace(' ', "\u{a0}").as_str())
            .unwrap();
        assert_eq!(p.amount, Money::from_minor(123_456));
    }

    #[test]
    fn parse_rejects_wrong_symbol() {
        assert!(us().parse("€1,234.56").is_err());
        assert!(de().parse("$1.234,56").is_err());
    }

    #[test]
    fn parse_rejects_malformed_grouping() {
        assert!(us().parse("$12,34.56").is_err());
        assert!(us().parse("$1,,234.56").is_err());
        assert!(us().parse("$1234,5.00").is_err());
    }

    #[test]
    fn parse_rejects_bad_decimals() {
        assert!(us().parse("$1.5").is_err());
        assert!(us().parse("$1.505").is_err());
        assert!(us().parse("$1.").is_err());
    }

    #[test]
    fn parse_no_group_separator_accepted() {
        assert_eq!(
            us().parse("$1234.56").unwrap().amount,
            Money::from_minor(123_456)
        );
    }

    #[test]
    fn parse_jpy() {
        let p = jp().parse("¥1,235").unwrap();
        assert_eq!(p.amount, Money::from_major_minor(1235, 0));
    }

    #[test]
    fn parse_negative() {
        assert_eq!(
            us().parse("$-10.99").unwrap().amount,
            Money::from_minor(-1099)
        );
    }

    #[test]
    fn format_price_checks_currency() {
        let p = Price::new(Money::from_minor(100), Currency::Eur);
        assert_eq!(de().format_price(p), "1,00\u{a0}€");
    }

    #[test]
    #[should_panic(expected = "locale/currency mismatch")]
    fn format_price_rejects_mismatch() {
        let p = Price::new(Money::from_minor(100), Currency::Usd);
        let _ = de().format_price(p);
    }

    #[test]
    fn every_country_locale_round_trips() {
        for &c in &Country::ALL {
            let loc = Locale::of_country(c);
            let amount = if loc.currency.decimals() == 0 {
                Money::from_major_minor(9_876, 0)
            } else {
                Money::from_minor(987_654)
            };
            let s = loc.format(amount);
            let parsed = loc.parse(&s).unwrap_or_else(|e| panic!("{c:?}: {e}"));
            assert_eq!(parsed.amount, amount, "{c:?} via {s:?}");
        }
    }

    proptest! {
        #[test]
        fn prop_format_parse_round_trip_all_locales(
            minor in 0i64..100_000_000,
            country_idx in 0usize..18,
        ) {
            let country = Country::ALL[country_idx];
            let loc = Locale::of_country(country);
            let amount = if loc.currency.decimals() == 0 {
                Money::from_minor((minor / 100) * 100)
            } else {
                Money::from_minor(minor)
            };
            let formatted = loc.format(amount);
            let parsed = loc.parse(&formatted).unwrap();
            prop_assert_eq!(parsed.amount, amount);
            prop_assert_eq!(parsed.currency, loc.currency);
        }

        #[test]
        fn prop_parse_never_panics(s in "\\PC{0,32}", country_idx in 0usize..18) {
            let loc = Locale::of_country(Country::ALL[country_idx]);
            let _ = loc.parse(&s);
        }
    }
}
