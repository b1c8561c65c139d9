//! # laab-stats — measurement methodology
//!
//! The paper's protocol (Sec. III): single-threaded execution, **minimum
//! over 20 repetitions**, and a **bootstrap** check of whether performance
//! differences are statistically significant (following Sankaran &
//! Bientinesi, "Discriminating equivalent algorithms via relative
//! performance"). This crate implements that protocol:
//!
//! * [`time_reps`] — warmup + R repetitions of a closure, wall-clock.
//! * [`Samples`] — order statistics over the repetition times.
//! * [`bootstrap_compare`] — non-parametric bootstrap over the two timing
//!   sets; a confidence interval on the difference of minima yields a
//!   faster/slower/indistinguishable verdict.
//! * [`Table`] — paper-style result tables with markdown rendering.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod bootstrap;
mod table;
mod timing;

pub use bootstrap::{bootstrap_compare, Comparison, Verdict};
pub use table::{fmt_secs, Table};
pub use timing::{time_reps, Samples, TimingConfig};
