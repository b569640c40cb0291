//! Utility metrics for protected mobility datasets.
//!
//! The ICDCS'15 paper's utility goal is to "minimally distort the
//! location"; this crate quantifies that promise from four angles, each
//! feeding one of the reproduction experiments:
//!
//! * [`spatial`] — point-to-path distortion (how far published points
//!   stray from the user's true path), scored through a segment grid
//!   and bit-identical to its brute-force oracle (T2, T5, T6, T7);
//! * [`coverage`] — which grid cells of the city the published data
//!   still covers, and how similar the published density heat-map is to
//!   the raw one (T2);
//! * [`queries`] — relative error of spatio-temporal range queries, the
//!   classic "analyst" workload (T2);
//! * [`trips`] — distribution-level statistics (trip length, duration,
//!   speed) with a two-sample Kolmogorov–Smirnov distance (T2, T7);
//! * [`report`] — plain-text table rendering for the experiment
//!   binaries.
//!
//! # Example
//!
//! ```
//! use mobipriv_metrics::spatial;
//! use mobipriv_synth::scenarios;
//!
//! let out = scenarios::commuter_town(2, 1, 3);
//! let summary = spatial::dataset_distortion(&out.dataset, &out.dataset);
//! assert_eq!(summary.mean, 0.0); // identical datasets: zero distortion
//! ```

#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

pub mod coverage;
pub mod queries;
pub mod report;
pub mod spatial;
pub mod trips;

pub use report::Table;
pub use spatial::DistortionSummary;
