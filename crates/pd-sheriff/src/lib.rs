//! The $heriff browser-extension model.
//!
//! $heriff (Sec. 3.1) lets a user highlight a price on any product page;
//! the exact URI is then sent to 14 vantage points around the world, each
//! downloads the full page, the highlighted price is re-extracted from
//! every copy, and the user sees the per-location prices. All pages and
//! prices land in a measurement database.
//!
//! * [`measurement`] — the measurement records and store,
//! * [`fanout`] — the synchronized 14-point check itself,
//! * [`copies`] — the per-scope page reader the check and every probe
//!   share: one extraction per distinct fetched copy, one parse from
//!   where copies differ,
//! * [`crowd`] — the simulated user population (340 users, 18 countries,
//!   1 500 checks over Jan–May 2013) including the noise sources the
//!   paper had to clean (mis-highlights, product customization not
//!   encoded in the URI),
//! * [`cleaning`] — the noise-removal step of Sec. 3.2,
//! * [`export`] — JSONL/CSV dataset export for external analysis,
//! * [`personas`] — the Sec. 4.4 persona and login experiments (Fig. 10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cleaning;
pub mod copies;
pub mod crowd;
pub mod export;
pub mod fanout;
pub mod measurement;
pub mod personas;

pub use copies::{CopyTally, PageReader};
pub use crowd::{Crowd, CrowdConfig};
pub use fanout::Sheriff;
pub use measurement::{Measurement, MeasurementStore, PriceObservation};
