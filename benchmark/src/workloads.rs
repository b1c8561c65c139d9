//! The four workloads and their seeded request streams.
//!
//! Everything a workload sends is derived from `(workload, seed)`; the
//! program under test receives only the resulting frames. All four are
//! closed loops over two connections with a fixed number of requests in
//! flight per connection, on the `engine` backend.

use laab_serve::workload::{Family, Request};
use laab_serve::Dtype;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Connections (and load-generating threads) every workload uses.
pub const CONNECTIONS: usize = 2;

/// The distinct thing a plan is compiled for: `(family, n, dtype)`.
pub type Shape = (Family, usize, Dtype);

const MATRIX_FAMILIES: [Family; 4] =
    [Family::CseGram, Family::Gram, Family::Slice, Family::Distributive];
const VECTOR_FAMILIES: [Family; 2] = [Family::Chain, Family::SolveResidual];
const CHURN_SIZES: std::ops::Range<usize> = 8..48;

/// One traffic mix. See `README.md` for the sizing numbers behind each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// The four matrix families at n = 256, 4 in flight per connection:
    /// `kernels::gemm` does the work and both cores saturate.
    MatrixClosed,
    /// The two vector families at n = 192, 8 in flight, a distinct
    /// payload per request: the only mix where the admission window
    /// fills by occupancy and the stacked multi-RHS path runs.
    VectorPipelined,
    /// All six families at n = 16, 1 in flight: compute is a few percent
    /// of the round trip, so per-request overhead is what shows.
    TinyClosed,
    /// 480 signatures (six families × n in 8..48 × both dtypes) visited
    /// cyclically, 8 in flight: far beyond the plan cache, so every
    /// lookup compiles.
    ChurnCold,
}

impl Workload {
    /// Every workload, in the fixed order a round runs them.
    pub const ALL: [Workload; 4] = [
        Workload::MatrixClosed,
        Workload::VectorPipelined,
        Workload::TinyClosed,
        Workload::ChurnCold,
    ];

    /// The name used on the command line, in results and in
    /// `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MatrixClosed => "matrix_closed",
            Workload::VectorPipelined => "vector_pipelined",
            Workload::TinyClosed => "tiny_closed",
            Workload::ChurnCold => "churn_cold",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests each connection keeps in flight.
    pub fn depth(self) -> usize {
        match self {
            Workload::MatrixClosed => 4,
            Workload::VectorPipelined | Workload::ChurnCold => 8,
            Workload::TinyClosed => 1,
        }
    }

    /// Whether the served plan cache (capacity 64) holds the workload's
    /// whole signature set, i.e. steady-state lookups hit.
    pub fn warm(self) -> bool {
        self != Workload::ChurnCold
    }

    /// Every distinct `(family, n, dtype)` the workload sends. For
    /// `churn_cold` this is the seed-shuffled visiting order.
    pub fn shapes(self, seed: u64) -> Vec<Shape> {
        let fixed = |families: &[Family], n: usize| {
            families
                .iter()
                .flat_map(|&f| [Dtype::F32, Dtype::F64].map(|d| (f, n, d)))
                .collect::<Vec<Shape>>()
        };
        match self {
            Workload::MatrixClosed => fixed(&MATRIX_FAMILIES, 256),
            Workload::VectorPipelined => fixed(&VECTOR_FAMILIES, 192),
            Workload::TinyClosed => fixed(&Family::ALL, 16),
            Workload::ChurnCold => {
                let mut all: Vec<Shape> =
                    CHURN_SIZES.flat_map(|n| fixed(&Family::ALL, n)).collect();
                // Fisher–Yates, so the visiting order depends on the seed
                // but every signature is visited once per cycle.
                let mut rng = self.rng(seed);
                for i in (1..all.len()).rev() {
                    all.swap(i, rng.gen_range(0..i + 1));
                }
                all
            }
        }
    }

    fn rng(self, seed: u64) -> StdRng {
        // Distinct streams per workload from one user-facing seed.
        StdRng::seed_from_u64(seed ^ (self as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The workload's request stream for `seed`: infinite, and identical
    /// for identical `(workload, seed)`.
    pub fn stream(self, seed: u64) -> Stream {
        Stream { shapes: self.shapes(seed), cyclic: !self.warm(), rng: self.rng(seed), next: 0 }
    }

    /// The sub-stream connection `conn` of [`CONNECTIONS`] sends: every
    /// `CONNECTIONS`-th request of [`Workload::stream`].
    pub fn connection_stream(self, seed: u64, conn: usize) -> impl Iterator<Item = Request> {
        self.stream(seed).skip(conn).step_by(CONNECTIONS)
    }
}

/// An infinite seeded request stream (see [`Workload::stream`]).
pub struct Stream {
    shapes: Vec<Shape>,
    cyclic: bool,
    rng: StdRng,
    next: u64,
}

impl Iterator for Stream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let i = self.next;
        self.next += 1;
        let (family, n, dtype) = if self.cyclic {
            self.shapes[(i % self.shapes.len() as u64) as usize]
        } else {
            // Family and dtype drawn independently and uniformly; the
            // shape list is family-major with the two dtypes adjacent.
            let family = self.rng.gen_range(0..self.shapes.len() / 2);
            let wide = self.rng.gen::<bool>();
            self.shapes[family * 2 + usize::from(wide)]
        };
        // The stream index is the payload id: distinct per request, so no
        // two requests of the vector families bind the same x / y.
        Some(Request { family, n, dtype, payload: i })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream_and_different_seed_differs() {
        for w in Workload::ALL {
            let a: Vec<Request> = w.stream(6827).take(600).collect();
            let b: Vec<Request> = w.stream(6827).take(600).collect();
            let c: Vec<Request> = w.stream(6828).take(600).collect();
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
        }
    }

    #[test]
    fn connection_streams_partition_the_workload_stream() {
        let w = Workload::VectorPipelined;
        let whole: Vec<Request> = w.stream(3).take(10).collect();
        let c0: Vec<Request> = w.connection_stream(3, 0).take(5).collect();
        let c1: Vec<Request> = w.connection_stream(3, 1).take(5).collect();
        assert_eq!(c0, [whole[0], whole[2], whole[4], whole[6], whole[8]]);
        assert_eq!(c1, [whole[1], whole[3], whole[5], whole[7], whole[9]]);
    }

    #[test]
    fn churn_visits_all_480_signatures_before_repeating() {
        let shapes = Workload::ChurnCold.shapes(6827);
        assert_eq!(shapes.len(), 480);
        let key = |r: &Request| (r.family, r.n, r.dtype);
        let stream: Vec<Request> = Workload::ChurnCold.stream(6827).take(960).collect();
        let first: HashSet<Shape> = stream[..480].iter().map(key).collect();
        assert_eq!(first.len(), 480);
        for i in 0..480 {
            assert_eq!(key(&stream[i]), key(&stream[i + 480]));
            assert_eq!(key(&stream[i]), shapes[i]);
        }
        assert_ne!(shapes, Workload::ChurnCold.shapes(6828), "order depends on the seed");
    }

    #[test]
    fn warm_workloads_use_their_families_sizes_and_both_dtypes() {
        let cases = [
            (Workload::MatrixClosed, 256, 8),
            (Workload::VectorPipelined, 192, 4),
            (Workload::TinyClosed, 16, 12),
        ];
        for (w, n, distinct) in cases {
            let seen: HashSet<Shape> =
                w.stream(1).take(2000).map(|r| (r.family, r.n, r.dtype)).collect();
            assert_eq!(seen.len(), distinct, "{}", w.name());
            assert!(seen.iter().all(|s| s.1 == n));
            assert_eq!(seen, w.shapes(1).into_iter().collect());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("open_loop"), None);
    }
}
