//! Framework profiles: the TF-like `Flow` and the PyT-like `Torch`.

use laab_dense::{Matrix, Scalar, Tridiagonal};
use laab_expr::eval::Env;
use laab_graph::PassConfig;

use crate::function::{FuncBuilder, Function, GT};
use crate::tensor::Tensor;

/// Which framework personality is under test.
///
/// Both share the same eager semantics and the same graph-mode optimizer
/// pipeline (the paper finds no relevant difference there); they differ in
/// which *manual* escape hatches they offer — exactly the asymmetry of
/// Tables III and IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// TensorFlow-analogue: offers `linalg.tridiagonal_matmul`.
    Flow,
    /// PyTorch-analogue: offers `linalg.multi_dot`.
    Torch,
}

impl Profile {
    /// Does this profile offer the specialized tridiagonal product?
    pub fn has_tridiagonal_matmul(self) -> bool {
        matches!(self, Profile::Flow)
    }

    /// Does this profile offer the chain-optimizing `multi_dot`?
    pub fn has_multi_dot(self) -> bool {
        matches!(self, Profile::Torch)
    }

    /// Display name used in the benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Flow => "Flow (TF)",
            Profile::Torch => "Torch (PyT)",
        }
    }
}

/// A framework instance: a profile plus the graph-mode pass pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Framework {
    /// The personality under test.
    pub profile: Profile,
    /// Graph-mode optimizer configuration (ablations toggle passes).
    pub passes: PassConfig,
}

impl Framework {
    /// The TensorFlow analogue with the full graph pipeline.
    pub fn flow() -> Self {
        Self { profile: Profile::Flow, passes: PassConfig::all() }
    }

    /// The PyTorch analogue with the full graph pipeline.
    pub fn torch() -> Self {
        Self { profile: Profile::Torch, passes: PassConfig::all() }
    }

    /// Override the pass pipeline (ablation studies).
    pub fn with_passes(mut self, passes: PassConfig) -> Self {
        self.passes = passes;
        self
    }

    /// Wrap a matrix as an eager tensor.
    pub fn tensor<T: Scalar>(&self, m: Matrix<T>) -> Tensor<T> {
        Tensor::new(m)
    }

    /// Trace and optimize a graph function (the `@tf.function` /
    /// `@torch.jit.script` decorator analogue).
    pub fn function<F>(&self, build: F) -> Function
    where
        F: FnOnce(&mut FuncBuilder) -> Vec<GT>,
    {
        Function::build(self.profile, self.passes, build)
    }

    /// Eager `linalg.tridiagonal_matmul` (Flow only): the fused,
    /// parallelizable O(n²) product the paper measures at 10–20× the
    /// hand-coded SCAL sequence.
    ///
    /// # Panics
    /// When the profile does not offer the method.
    pub fn tridiagonal_matmul<T: Scalar>(&self, t: &Tridiagonal<T>, b: &Tensor<T>) -> Tensor<T> {
        assert!(
            self.profile.has_tridiagonal_matmul(),
            "linalg.tridiagonal_matmul is not available in the {:?} profile",
            self.profile
        );
        match b.dense_view() {
            Some(m) => Tensor::new(laab_kernels::tridiag_matmul(t, m)),
            None => Tensor::new(laab_kernels::tridiag_matmul(t, &b.to_matrix())),
        }
    }

    /// Eager `linalg.multi_dot` (Torch only): evaluates the chain in the
    /// DP-optimal order.
    ///
    /// # Panics
    /// When the profile does not offer the method.
    pub fn multi_dot<T: Scalar>(&self, factors: &[&Tensor<T>]) -> Tensor<T> {
        assert!(
            self.profile.has_multi_dot(),
            "linalg.multi_dot is not available in the {:?} profile",
            self.profile
        );
        let dense: Vec<Matrix<T>> = factors.iter().map(|t| t.to_matrix()).collect();
        let refs: Vec<&Matrix<T>> = dense.iter().collect();
        Tensor::new(laab_chain::multi_dot(&refs))
    }

    /// Execute a symbolic expression in **eager mode**, exactly as written
    /// (see [`crate::lower::eager_eval_expr`]).
    pub fn eager_expr<T: Scalar>(&self, e: &laab_expr::Expr, env: &Env<T>) -> Matrix<T> {
        crate::lower::eager_eval_expr(e, env)
    }

    /// Trace a symbolic expression into a **graph-mode** function.
    pub fn function_from_expr(
        &self,
        e: &laab_expr::Expr,
        env_shapes: &laab_expr::Context,
    ) -> Function {
        let expr = e.clone();
        let ctx = env_shapes.clone();
        Function::build(self.profile, self.passes, move |fb| {
            vec![crate::lower::trace_expr(fb, &expr, &ctx)]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laab_dense::gen::OperandGen;

    #[test]
    fn capability_matrix_matches_paper() {
        assert!(Profile::Flow.has_tridiagonal_matmul());
        assert!(!Profile::Flow.has_multi_dot());
        assert!(Profile::Torch.has_multi_dot());
        assert!(!Profile::Torch.has_tridiagonal_matmul());
    }

    #[test]
    fn flow_tridiagonal_matmul_matches_dense() {
        let n = 20;
        let fw = Framework::flow();
        let mut g = OperandGen::new(81);
        let t = g.tridiagonal::<f64>(n);
        let b = g.matrix::<f64>(n, n);
        let bt = fw.tensor(b.clone());
        let got = fw.tridiagonal_matmul(&t, &bt);
        let want = laab_kernels::matmul(
            &t.to_dense(),
            laab_kernels::Trans::No,
            &b,
            laab_kernels::Trans::No,
        );
        assert!(got.to_matrix().approx_eq(&want, 1e-12));
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn torch_lacks_tridiagonal_matmul() {
        let fw = Framework::torch();
        let mut g = OperandGen::new(82);
        let t = g.tridiagonal::<f64>(4);
        let b = fw.tensor(g.matrix::<f64>(4, 4));
        let _ = fw.tridiagonal_matmul(&t, &b);
    }

    #[test]
    fn torch_multi_dot_beats_left_to_right() {
        use laab_kernels::counters::{self, Kernel};
        let n = 24;
        let fw = Framework::torch();
        let mut g = OperandGen::new(83);
        let h = fw.tensor(g.matrix::<f64>(n, n));
        let x = fw.tensor(g.matrix::<f64>(n, 1));
        let ht = h.t();
        counters::reset();
        let _ = fw.multi_dot(&[&ht, &h, &x]);
        let s = counters::snapshot();
        assert_eq!(s.calls(Kernel::Gemm), 0, "optimal order avoids GEMM");
        assert_eq!(s.calls(Kernel::Gemv), 2);
    }

    #[test]
    fn traced_symmetric_products_stay_full_gemms() {
        // Experiment 3's finding is about the frameworks: both profiles
        // trace A·Aᵀ to a plain matmul and run one full GEMM. The SYRK
        // lowering belongs to the serving layer's LA-aware level, not here.
        use laab_kernels::counters::{self, Kernel};
        let n = 16;
        let expr = laab_expr::var("A") * laab_expr::var("A").t();
        let ctx = laab_expr::Context::new().with("A", n, n);
        let env = laab_expr::eval::Env::<f64>::new().with("A", OperandGen::new(84).matrix(n, n));
        for fw in [Framework::flow(), Framework::torch()] {
            let f = fw.function_from_expr(&expr, &ctx);
            assert_eq!((f.graph().matmul_count(), f.graph().syrk_count()), (1, 0));
            let (_, c) = counters::measure(|| f.call(&env));
            assert_eq!((c.calls(Kernel::Gemm), c.calls(Kernel::Syrk)), (1, 0));
            assert_eq!(c.flops(Kernel::Gemm), 2 * (n * n * n) as u64);
        }
    }
}
