//! What the box was doing: a fingerprint for result files, the
//! hypervisor's steal share, and a frozen-kernel yardstick. These say
//! "the box moved", never "the code moved".

use std::process::Command;
use std::time::Instant;

use laab_dense::Matrix;
use laab_kernels::{seed::gemm_seed, Trans};

use crate::stats::median;

/// Identifies the machine and toolchain a result file came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Fingerprint {
    /// Read the fingerprint of the current host.
    pub fn read() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                let line = text.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            git_commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// File-name-safe identity of the *machine* (not the commit): the
    /// name of the baseline a result is comparable with.
    pub fn slug(&self) -> String {
        let mut slug = String::new();
        for c in self.cpu_model.chars() {
            if c.is_ascii_alphanumeric() {
                slug.push(c.to_ascii_lowercase());
            } else if !slug.ends_with('-') {
                slug.push('-');
            }
        }
        format!("{}-{}cpu", slug.trim_matches('-'), self.nproc)
    }
}

/// Cumulative `(steal, total)` jiffies from the `cpu` line of
/// `/proc/stat`; `(0, 0)` where the file is unreadable.
pub fn steal_jiffies() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

/// Share of the host's CPU time stolen between two [`steal_jiffies`]
/// readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Times `f` `reps` times and returns the median GFLOP/s for `flops`
/// floating-point operations per call.
pub fn gflops(flops: f64, reps: usize, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    flops / median(&secs) / 1e9
}

/// The yardstick: the frozen PR-1 GEMM (`laab_kernels::seed`, never
/// optimised again) at 256³ `f64` on this thread. A later PR cannot move
/// it, so when it moves, the host did.
pub struct Yardstick {
    a: Matrix<f64>,
    b: Matrix<f64>,
    c: Matrix<f64>,
}

impl Yardstick {
    const N: usize = 256;

    /// Allocate the operands once.
    pub fn new() -> Yardstick {
        let n = Self::N;
        Yardstick {
            a: Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0),
            b: Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 13) % 7) as f64 - 3.0),
            c: Matrix::zeros(n, n),
        }
    }

    /// Median GFLOP/s of five calls, after three untimed ones that pull
    /// the core out of whatever idle state the last window left it in
    /// (≈ 15 ms in total).
    pub fn measure(&mut self) -> f64 {
        let n = Self::N as f64;
        let (a, b, c) = (&self.a, &self.b, &mut self.c);
        for _ in 0..3 {
            gemm_seed(1.0, a, Trans::No, b, Trans::No, 0.0, c);
        }
        gflops(2.0 * n * n * n, 5, || {
            gemm_seed(1.0, a, Trans::No, b, Trans::No, 0.0, c);
            std::hint::black_box(&*c);
        })
    }
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slug_is_file_name_safe_and_names_the_machine() {
        let f = Fingerprint {
            cpu_model: "Intel(R) Xeon(R) Processor @ 2.10GHz".into(),
            nproc: 2,
            rustc: "rustc 1.95.0".into(),
            git_commit: "abc".into(),
        };
        assert_eq!(f.slug(), "intel-r-xeon-r-processor-2-10ghz-2cpu");
    }

    #[test]
    fn steal_share_is_a_ratio_of_deltas() {
        assert_eq!(steal_share((10, 1000), (30, 1400)), 0.05);
        assert_eq!(steal_share((10, 1000), (10, 1000)), 0.0);
        let (steal, total) = steal_jiffies();
        assert!(steal <= total);
    }

    #[test]
    fn yardstick_reports_a_positive_rate() {
        assert!(Yardstick::new().measure() > 0.0);
    }
}
