//! # laab-core — the Linear Algebra Awareness Benchmark suite
//!
//! The paper's primary contribution, reproduced as a library: one function
//! per table/figure of the evaluation section, each returning an
//! [`ExperimentResult`] containing
//!
//! * a **timing table** in the paper's format (minimum of R repetitions,
//!   single-threaded by default),
//! * an **analytical table** of kernel calls and FLOPs recorded by the
//!   substrate's instrumentation (the deterministic counterpart of every
//!   timing claim — this is what the test-suite asserts), and
//! * a list of **checks**: the paper's qualitative findings ("the execution
//!   time for `E1` is close to that for `S`", "the frameworks do not choose
//!   the optimal parenthesization", …) evaluated against the measured data
//!   with bootstrap significance tests.
//!
//! | Function | Paper artifact |
//! |----------|---------------|
//! | [`experiments::fig1`](fn@experiments::fig1) | Fig. 1 — image-restoration variants |
//! | [`experiments::table1`](fn@experiments::table1) | Table I — MKL-C vs Eager vs Graph |
//! | [`experiments::table2`](fn@experiments::table2) | Table II — common-subexpression elimination |
//! | [`experiments::table3`](fn@experiments::table3) | Table III — matrix-chain evaluation |
//! | [`experiments::table4`](fn@experiments::table4) | Table IV — matrix properties |
//! | [`experiments::table5`](fn@experiments::table5) | Table V — algebraic manipulation |
//! | [`experiments::table6`](fn@experiments::table6) | Table VI — code motion |
//! | [`experiments::fig6`](fn@experiments::fig6) | Fig. 6 — same-FLOP instruction orders |
//! | [`experiments::fig7`](fn@experiments::fig7) | Fig. 7 — the five orders of a 4-chain |

#![deny(missing_docs)]

pub mod baselines;
pub mod bench_registry;
pub mod experiments;
pub mod runner;
pub mod workloads;

use laab_stats::{Table, TimingConfig};
use serde::{Deserialize, Serialize};

/// Global experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Problem size (the paper uses n = 3000; the default here is sized for
    /// a laptop-class single core — conclusions are n-independent ratios).
    pub n: usize,
    /// Timing protocol (paper: min of 20 repetitions).
    pub timing: TimingConfig,
    /// Operand seed.
    pub seed: u64,
    /// Cross-validate every variant numerically against the oracle before
    /// timing it.
    pub check_numerics: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self { n: 512, timing: TimingConfig::default(), seed: 0x1AAB, check_numerics: true }
    }
}

impl ExperimentConfig {
    /// Quick configuration for tests and smoke runs.
    pub fn quick(n: usize) -> Self {
        Self { n, timing: TimingConfig::quick(), ..Self::default() }
    }
}

/// One qualitative finding of the paper, re-evaluated on measured data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckOutcome {
    /// What the paper claims (short form).
    pub name: String,
    /// Whether our measurement reproduces it.
    pub passed: bool,
    /// Supporting numbers (ratios, CIs).
    pub detail: String,
    /// `true` when the check compares wall-clock measurements, which jitter
    /// under CPU contention (e.g. parallel test runs). Deterministic checks
    /// (kernel counts, FLOPs, numerics, rewriter output) are `false` and
    /// are the ones the test suite asserts unconditionally.
    pub timing: bool,
}

impl CheckOutcome {
    fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Self {
        Self { name: name.into(), passed, detail: detail.into(), timing: false }
    }

    /// A check that the wall-clock `ratio` lies within `[lo, hi]`.
    pub fn ratio(name: impl Into<String>, ratio: f64, lo: f64, hi: f64) -> Self {
        Self {
            timing: true,
            ..Self::new(
                name,
                ratio >= lo && ratio <= hi,
                format!("ratio = {ratio:.2} (expected in [{lo:.2}, {hi:.2}])"),
            )
        }
    }
}

/// `true` when `LAAB_STRICT_TIMING` is set: test assertions then also cover
/// the timing-sensitive checks, not just the deterministic ones. Leave it
/// unset on shared/parallel machines where wall-clock bands jitter.
pub fn strict_timing() -> bool {
    std::env::var_os("LAAB_STRICT_TIMING").is_some_and(|v| v != "0" && !v.is_empty())
}

/// The outcome of one experiment (one table or figure of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Stable identifier (`"table2"`, `"fig1"`, …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Timing table (paper format).
    pub table: Table,
    /// Kernel-call / FLOP table (deterministic).
    pub analysis: Table,
    /// The paper's findings, re-checked.
    pub checks: Vec<CheckOutcome>,
}

impl ExperimentResult {
    /// `true` when every check reproduced the paper's finding.
    pub fn all_checks_pass(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The checks tests assert on: always the deterministic ones, plus the
    /// timing-sensitive ones when [`strict_timing`] is enabled.
    pub fn asserted_checks(&self) -> impl Iterator<Item = &CheckOutcome> {
        let strict = strict_timing();
        self.checks.iter().filter(move |c| !c.timing || strict)
    }

    /// Render the full result (both tables + checks) as markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = format!("## {} ({})\n\n", self.title, self.id);
        s.push_str(&self.table.to_markdown());
        s.push('\n');
        s.push_str(&self.analysis.to_markdown());
        s.push_str("\n**Paper findings re-checked:**\n\n");
        for c in &self.checks {
            s.push_str(&format!(
                "- [{}] {} — {}\n",
                if c.passed { "x" } else { " " },
                c.name,
                c.detail
            ));
        }
        s
    }
}

/// Run the complete suite in paper order.
pub fn run_all(cfg: &ExperimentConfig) -> Vec<ExperimentResult> {
    vec![
        experiments::fig1(cfg),
        experiments::table1(cfg),
        experiments::table2(cfg),
        experiments::table3(cfg),
        experiments::fig7(cfg),
        experiments::table4(cfg),
        experiments::table5(cfg),
        experiments::fig6(cfg),
        experiments::table6(cfg),
        experiments::ext_solve(cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_protocol() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.timing.reps, 20);
        assert!(cfg.check_numerics);
    }

    #[test]
    fn check_outcome_ratio_bounds() {
        assert!(CheckOutcome::ratio("r", 2.0, 1.5, 2.5).passed);
        assert!(!CheckOutcome::ratio("r", 3.0, 1.5, 2.5).passed);
        let c = CheckOutcome::ratio("r", 2.0, 1.5, 2.5);
        assert!(c.detail.contains("2.00"));
    }

    #[test]
    fn experiment_result_markdown() {
        let r = ExperimentResult {
            id: "t".into(),
            title: "T".into(),
            table: Table::new("timings", &["a"]),
            analysis: Table::new("analysis", &["a"]),
            checks: vec![CheckOutcome::new("claim", true, "ok")],
        };
        let md = r.to_markdown();
        assert!(md.contains("## T (t)"));
        assert!(md.contains("- [x] claim"));
        assert!(r.all_checks_pass());
    }
}
