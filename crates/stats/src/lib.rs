//! Statistics utilities for the Vulkan-Sim reproduction.
//!
//! The simulator's evaluation section relies on a handful of statistical
//! building blocks: event counters (named [`Counters`] for reports, typed
//! [`Slots`] for hot paths), a fixed-seed hasher ([`FxHashMap`]) for
//! run-to-run repeatable maps, latency/occupancy histograms
//! ([`Histogram`]), Pearson correlation and least-squares slope for the
//! hardware-correlation studies (Figs. 11 and 19), and roofline points
//! (Fig. 12). They are kept in one dependency-free crate so every model can
//! record into them.
//!
//! # Example
//!
//! ```
//! use vksim_stats::{Histogram, correlation};
//!
//! let mut h = Histogram::new(10.0);
//! h.record(5.0);
//! h.record(25.0);
//! assert_eq!(h.count(), 2);
//!
//! let r = correlation::pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
//! assert!((r - 1.0).abs() < 1e-12);
//! ```

pub mod correlation;
pub mod counters;
pub mod fxhash;
pub mod histogram;
pub mod roofline;
pub mod slots;

pub use correlation::{least_squares_slope, pearson};
pub use counters::Counters;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use histogram::Histogram;
pub use roofline::{Roofline, RooflinePoint};
pub use slots::{CounterSlot, Slots};
