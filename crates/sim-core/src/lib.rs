//! Deterministic discrete-event simulation (DES) kernel for the HOG
//! reproduction.
//!
//! This crate provides the machinery shared by every substrate model in the
//! workspace:
//!
//! * [`time`] — integer-millisecond simulation clock ([`SimTime`],
//!   [`SimDuration`]) with no floating-point drift.
//! * [`queue`] — a deterministic [`EventQueue`] (min-heap keyed by time with
//!   a monotone sequence number for FIFO tie-breaking).
//! * [`engine`] — the [`Simulation`] driver loop over a user-supplied
//!   [`Model`].
//! * [`rng`] — seedable, reproducible random number generation
//!   ([`SimRng`]).
//! * [`dist`] — inverse-transform samplers (exponential, uniform,
//!   log-normal, …) so we do not need `rand_distr`.
//! * [`metrics`] — time-series recording, step-function integration
//!   (area-beneath-curve as used in the paper's Table IV) and histograms.
//! * [`units`] — byte/bandwidth helper constants.
//! * [`audit`] — runtime invariant auditing ([`Violation`], [`Auditable`])
//!   used by the chaos/fault-injection layer.
//!
//! Everything is deterministic given a seed: the same
//! `(model, seed)` pair replays the exact same event sequence. This is the
//! property that makes the paper's figures reproducible as tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod dist;
pub mod engine;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod time;
pub mod units;

pub use audit::{Auditable, Violation};
pub use dist::{Exponential, LogNormal, UniformDuration};
pub use engine::{Model, Scheduler, Simulation};
pub use metrics::{Histogram, StepSeries};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
