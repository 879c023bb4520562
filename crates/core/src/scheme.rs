//! The executable compact inference scheme ([`CompactEngine`]).

use crate::indexmap::{assemble_dest_map, prepare_copy_plan, stage_dest_map, CopyPlan};
use crate::plan::InferencePlan;
use crate::transform::{
    assemble_output_gather, copy_gather_batched, prepare_input_scatter, unfold_core, TransformMap,
};
use std::sync::Mutex;
use tie_tensor::linalg::{gemm_into, gemm_into_mapped, DestMap};
use tie_tensor::tile::Activation;
use tie_tensor::{Result, Scalar, Tensor, TensorError};
use tie_tt::inference::OpCount;
use tie_tt::TtMatrix;

/// A prepared compact-scheme executor for one TT-compressed layer.
///
/// Construction unfolds every core into its stage matrix `G̃_h` and compiles
/// every index bijection of the scheme **symbolically**
/// ([`crate::indexmap`]): the inter-stage Transform of each stage composes
/// into a single affine map, lowered into a [`DestMap`] that the blocked
/// GEMM evaluates inside its write loop. [`CompactEngine::matvec`] then
/// runs the `d` multiply stages against a ping-pong scratch workspace held
/// inside the engine, each stage scattering its output **directly into the
/// next stage's layout** — the separate permutation pass (and its
/// intermediate buffer) no longer exists. This mirrors TIE hardware, where
/// the unfolded cores sit in the weight SRAM, the working SRAMs are
/// ping-ponged between stages, and the transforms are absorbed into the
/// working-SRAM access scheme rather than moving data.
///
/// The input preparation (Eqn. 8) — the one bijection that cannot fuse
/// into a GEMM because no GEMM precedes it — runs as the provably-minimal
/// block-copy [`CopyPlan`] derived from the same composed map.
///
/// After the first call has grown the workspace, steady-state
/// [`CompactEngine::matvec_into`] performs **no heap allocation**.
///
/// # Example
///
/// ```
/// use tie_tensor::{Tensor, linalg::{matvec, Truncation}};
/// use tie_tt::TtMatrix;
/// use tie_core::CompactEngine;
///
/// # fn main() -> Result<(), tie_tensor::TensorError> {
/// let w = Tensor::<f64>::from_fn(vec![6, 4], |i| (i[0] * 4 + i[1]) as f64)?;
/// let tt = TtMatrix::from_dense(&w, &[3, 2], &[2, 2], Truncation::none())?;
/// let engine = CompactEngine::new(tt)?;
/// let x = Tensor::<f64>::from_fn(vec![4], |i| 1.0 - i[0] as f64)?;
/// let (y, _) = engine.matvec(&x)?;
/// assert!(y.approx_eq(&matvec(&w, &x)?, 1e-9));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CompactEngine<T: Scalar> {
    matrix: TtMatrix<T>,
    plan: InferencePlan,
    /// Unfolded stage matrices, indexed by 0-based core index `k = h-1`.
    gtildes: Vec<Tensor<T>>,
    /// Transform maps for `h = d, d-1, …, 2` — kept for the traced run and
    /// the gather-table differential oracle
    /// ([`CompactEngine::matvec_batch_into_gather`]); the hot path never
    /// touches them.
    transforms: Vec<TransformMap>,
    /// Fused write epilogues, one per stage in execution order: the
    /// composed Transform map for `h = d … 2`, the output-assembly map for
    /// the final `h = 1` stage (which scatters straight into the caller's
    /// buffer).
    dest_maps: Vec<DestMap>,
    /// Minimal block-copy plan of the input preparation (Eqn. (8)),
    /// compiled from the inverted affine map.
    prep_plan: CopyPlan,
    /// Optional per-output-neuron bias (`M` elements), fused into the
    /// final stage's write epilogue.
    bias: Option<Vec<T>>,
    /// Activation fused into the final stage's write epilogue.
    activation: Activation,
    /// Ping-pong scratch buffers, grown on demand and reused across calls.
    workspace: Mutex<Workspace<T>>,
}

/// Reusable scratch for the stage pipeline. With fused writes each buffer
/// only ever holds a stage *input* (`max_stage_input_elems × batch`) — the
/// Transform intermediate of the legacy pipeline no longer exists, and the
/// final stage bypasses the workspace entirely. `pong` stays empty for
/// single-stage layers.
#[derive(Debug)]
struct Workspace<T> {
    ping: Vec<T>,
    pong: Vec<T>,
}

impl<T> Default for Workspace<T> {
    fn default() -> Self {
        Workspace {
            ping: Vec::new(),
            pong: Vec::new(),
        }
    }
}

impl<T: Scalar> Clone for CompactEngine<T> {
    fn clone(&self) -> Self {
        CompactEngine {
            matrix: self.matrix.clone(),
            plan: self.plan.clone(),
            gtildes: self.gtildes.clone(),
            transforms: self.transforms.clone(),
            dest_maps: self.dest_maps.clone(),
            prep_plan: self.prep_plan.clone(),
            bias: self.bias.clone(),
            activation: self.activation,
            // Scratch is per-engine state, not semantic state: the clone
            // starts with an empty workspace and grows it on first use.
            workspace: Mutex::new(Workspace::default()),
        }
    }
}

/// Compile-time audit: the engine is shared across the serving layer's
/// threads behind `Arc`, so it must stay `Send + Sync`. Every field is
/// immutable after construction except the scratch workspace, which is
/// `Mutex`-guarded; adding interior mutability outside that `Mutex` (a
/// `Cell`, an `Rc`, a raw pointer) breaks this assertion at compile time
/// rather than at a data race.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    let _ = assert_send_sync::<CompactEngine<f64>>;
    let _ = assert_send_sync::<CompactEngine<f32>>;
};

/// Intermediate matrices captured by [`CompactEngine::matvec_traced`]:
/// the prepared input `X'` followed by each stage's output `V_h`
/// (pre-transform), `h = d … 1`.
#[derive(Debug, Clone)]
pub struct StageTrace<T: Scalar> {
    /// `X' = V'_{d+1}` (Eqn. (8) layout).
    pub prepared_input: Tensor<T>,
    /// `V_h` for `h = d, d-1, …, 1`, in execution order.
    pub stage_outputs: Vec<Tensor<T>>,
}

impl<T: Scalar> CompactEngine<T> {
    /// Prepares the engine: builds the plan, unfolds all cores, and
    /// compiles every index bijection symbolically — the per-stage fused
    /// write epilogues and the minimal input-preparation copy plan.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (cannot occur for a valid [`TtMatrix`]).
    pub fn new(matrix: TtMatrix<T>) -> Result<Self> {
        let plan = InferencePlan::new(matrix.shape())?;
        let gtildes = matrix
            .cores()
            .iter()
            .map(unfold_core)
            .collect::<Result<Vec<_>>>()?;
        let d = matrix.ndim();
        let transforms = (2..=d)
            .rev()
            .map(|h| TransformMap::new(matrix.shape(), h))
            .collect::<Result<Vec<_>>>()?;
        // Fused epilogues in execution order: composed Transform maps for
        // h = d … 2, then the output-assembly map for the final stage.
        let mut dest_maps = Vec::with_capacity(d);
        for h in (2..=d).rev() {
            dest_maps.push(stage_dest_map(matrix.shape(), h)?);
        }
        dest_maps.push(assemble_dest_map(matrix.shape())?);
        let prep_plan = prepare_copy_plan(matrix.shape())?;
        Ok(CompactEngine {
            matrix,
            plan,
            gtildes,
            transforms,
            dest_maps,
            prep_plan,
            bias: None,
            activation: Activation::Identity,
            workspace: Mutex::new(Workspace::default()),
        })
    }

    /// Attaches a per-output-neuron bias (`M` elements), fused into the
    /// final stage's GEMM write epilogue — the output gets `y + bias`
    /// without a second pass over `y` (builder style).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `bias` is not `M`
    /// elements.
    pub fn with_bias(mut self, bias: Vec<T>) -> Result<Self> {
        let m = self.matrix.shape().num_rows();
        if bias.len() != m {
            return Err(TensorError::ShapeMismatch {
                left: vec![bias.len()],
                right: vec![m],
            });
        }
        self.bias = Some(bias);
        Ok(self)
    }

    /// Selects the activation fused into the final stage's write epilogue
    /// (builder style). Applied after the bias, inside the GEMM store —
    /// never as a separate pass.
    #[must_use]
    pub fn with_activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self.plan = self.plan.clone().with_activation(activation);
        self
    }

    /// The fused per-output bias, if any.
    pub fn bias(&self) -> Option<&[T]> {
        self.bias.as_deref()
    }

    /// The fused final-stage activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The underlying TT matrix.
    pub fn matrix(&self) -> &TtMatrix<T> {
        &self.matrix
    }

    /// The execution plan (per-stage dimensions and analytic costs).
    pub fn plan(&self) -> &InferencePlan {
        &self.plan
    }

    /// The unfolded stage matrices `G̃_1 … G̃_d` (0-based indexing).
    pub fn unfolded_cores(&self) -> &[Tensor<T>] {
        &self.gtildes
    }

    /// Compact matrix-vector product `y = W x` with operation counters.
    ///
    /// Allocates the output vector; use [`CompactEngine::matvec_into`] to
    /// reuse a caller-owned buffer and stay allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x` has the wrong length.
    pub fn matvec(&self, x: &Tensor<T>) -> Result<(Tensor<T>, OpCount)> {
        let n = self.matrix.shape().num_cols();
        if x.ndim() != 1 || x.num_elements() != n {
            return Err(TensorError::ShapeMismatch {
                left: x.dims().to_vec(),
                right: vec![n],
            });
        }
        let mut y = Tensor::zeros(vec![self.matrix.shape().num_rows()]);
        let count = self.run_batched(x.data(), 1, y.data_mut())?;
        Ok((y, count))
    }

    /// Compact matrix-vector product into a caller-owned buffer.
    ///
    /// Steady-state this performs **no heap allocation**: the prepared
    /// input, every stage product, and every transform run inside the
    /// engine's ping-pong workspace (grown once, on the first call), and
    /// the result is gathered straight into `y`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x` is not `N` elements
    /// or `y` is not `M` elements.
    pub fn matvec_into(&self, x: &[T], y: &mut [T]) -> Result<OpCount> {
        let n = self.matrix.shape().num_cols();
        let m = self.matrix.shape().num_rows();
        if x.len() != n {
            return Err(TensorError::ShapeMismatch {
                left: vec![x.len()],
                right: vec![n],
            });
        }
        if y.len() != m {
            return Err(TensorError::ShapeMismatch {
                left: vec![y.len()],
                right: vec![m],
            });
        }
        self.run_batched(x, 1, y)
    }

    /// Like [`CompactEngine::matvec`] but also returns every intermediate
    /// matrix — used by the cycle-accurate simulator's functional
    /// cross-checks. The intermediates are cloned out of the workspace
    /// (the only path that clones; the untraced paths never do).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x` has the wrong length.
    pub fn matvec_traced(&self, x: &Tensor<T>) -> Result<(Tensor<T>, StageTrace<T>)> {
        let n = self.matrix.shape().num_cols();
        if x.ndim() != 1 || x.num_elements() != n {
            return Err(TensorError::ShapeMismatch {
                left: x.dims().to_vec(),
                right: vec![n],
            });
        }
        let mut y = Tensor::zeros(vec![self.matrix.shape().num_rows()]);
        let (trace, _) = self.run_batched_gather(x.data(), 1, y.data_mut(), true)?;
        Ok((y, trace.expect("trace requested")))
    }

    /// Batched product `Y = W X` for `X (N × B)`: **one batch-wide compact
    /// pass**, not `B` independent passes.
    ///
    /// Each of the `d` stages executes as a *single* GEMM
    /// `G̃_h · [V'_{h+1} for all B columns]` — the batch rides along as an
    /// inner-most index, so inter-stage transforms and the input/output
    /// layouts become contiguous `B`-element block copies. Arithmetic
    /// (`mults`, `adds`) therefore scales by `B`, but `core_reads` is
    /// counted **once per stage** regardless of `B`: each unfolded core is
    /// streamed from weight memory a single time and reused across the
    /// whole batch. This is TIE's working-SRAM amortization argument — the
    /// larger the batch, the further each weight read is amortized.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on a row-count mismatch.
    pub fn matvec_batch(&self, xs: &Tensor<T>) -> Result<(Tensor<T>, OpCount)> {
        let n = self.matrix.shape().num_cols();
        let m = self.matrix.shape().num_rows();
        if xs.ndim() != 2 || xs.nrows()? != n {
            return Err(TensorError::ShapeMismatch {
                left: xs.dims().to_vec(),
                right: vec![n, 0],
            });
        }
        let b = xs.ncols()?; // ≥ 1: zero-sized tensors are unrepresentable
        let mut out = Tensor::zeros(vec![m, b]);
        let count = self.run_batched(xs.data(), b, out.data_mut())?;
        Ok((out, count))
    }

    /// Slice-level batched product: `xs` is row-major `N × b`, `ys`
    /// receives row-major `M × b`. Same single-pass semantics and counter
    /// conventions as [`CompactEngine::matvec_batch`], but zero-alloc in
    /// steady state and accepting of the degenerate `b == 0` batch (which
    /// runs no stages and streams no weights).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `xs` is not `N·b` elements
    /// or `ys` is not `M·b` elements.
    pub fn matvec_batch_into(&self, xs: &[T], b: usize, ys: &mut [T]) -> Result<OpCount> {
        let n = self.matrix.shape().num_cols();
        let m = self.matrix.shape().num_rows();
        if xs.len() != n * b {
            return Err(TensorError::ShapeMismatch {
                left: vec![xs.len()],
                right: vec![n * b],
            });
        }
        if ys.len() != m * b {
            return Err(TensorError::ShapeMismatch {
                left: vec![ys.len()],
                right: vec![m * b],
            });
        }
        if b == 0 {
            // No columns: no stages run, no weights streamed.
            return Ok(OpCount::default());
        }
        self.run_batched(xs, b, ys)
    }

    /// The legacy gather-table pipeline, kept as the **differential
    /// oracle** for the fused path: every stage GEMM writes plainly and a
    /// separate permutation pass re-lays the output out via gather tables
    /// materialized from the [`TransformMap`]s. Bit-identical to
    /// [`CompactEngine::matvec_batch_into`] (tested — it runs the same
    /// GEMM arithmetic, only the writes differ), but allocates its
    /// buffers and tables per call: a cold path by design.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `xs` is not `N·b`
    /// elements or `ys` is not `M·b` elements.
    pub fn matvec_batch_into_gather(&self, xs: &[T], b: usize, ys: &mut [T]) -> Result<OpCount> {
        let n = self.matrix.shape().num_cols();
        let m = self.matrix.shape().num_rows();
        if xs.len() != n * b || ys.len() != m * b {
            return Err(TensorError::ShapeMismatch {
                left: vec![xs.len(), ys.len()],
                right: vec![n * b, m * b],
            });
        }
        if b == 0 {
            return Ok(OpCount::default());
        }
        let (_, count) = self.run_batched_gather(xs, b, ys, false)?;
        Ok(count)
    }

    /// Bytes of inter-stage and output-assembly traffic the fused write
    /// epilogues eliminate per sample: the legacy pipeline re-wrote every
    /// post-GEMM intermediate (`V_h`, `h ≥ 2`) plus the assembled output
    /// through a separate permutation pass; the fused pipeline writes each
    /// element exactly once.
    pub fn transform_elided_bytes_per_sample(&self) -> u64 {
        let elem = std::mem::size_of::<T>() as u64;
        let stage_elems: u64 = self
            .plan
            .stages()
            .iter()
            .filter(|s| s.h >= 2)
            .map(|s| s.output_elems() as u64)
            .sum();
        (stage_elems + self.matrix.shape().num_rows() as u64) * elem
    }

    /// Bytes still moved per sample by pure copying — the Eqn. (8) input
    /// preparation, the one bijection with no producing GEMM to fuse into.
    pub fn bytes_moved_per_sample(&self) -> u64 {
        self.matrix.shape().num_cols() as u64 * std::mem::size_of::<T>() as u64
    }

    /// The fused stage pipeline: `xs` is `N` rows of `b` contiguous batch
    /// elements (row-major `N × b`), `ys` receives the `M × b` result.
    ///
    /// All intermediates live in the ping-pong workspace with the batch
    /// index inner-most: the element at matrix offset `e`, batch column
    /// `c`, sits at flat `e·b + c`. A stage GEMM then *is* the batched
    /// stage — `G̃_h (rows × k)` times the intermediate viewed as
    /// `k × (v_cols·b)` — and its write loop evaluates the stage's
    /// composed Transform map, scattering each output straight into
    /// `V'_h` layout (or, for the final stage, straight into `ys` in
    /// assembled order). No permutation pass, no transform intermediate.
    fn run_batched(&self, xs: &[T], b: usize, ys: &mut [T]) -> Result<OpCount> {
        debug_assert!(b > 0);
        let shape = self.matrix.shape();
        let d = shape.ndim();
        let mut count = OpCount::default();
        let mut guard = self
            .workspace
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ws = &mut *guard;
        // Each buffer only ever holds a stage input; the final stage
        // writes into `ys`, so `pong` is needed only when d ≥ 2.
        let per_buf = self.plan.max_stage_input_elems() * b;
        if ws.ping.len() < per_buf {
            ws.ping.resize(per_buf, T::ZERO);
        }
        if d >= 2 && ws.pong.len() < per_buf {
            ws.pong.resize(per_buf, T::ZERO);
        }
        let (mut cur, mut nxt) = (&mut ws.ping, &mut ws.pong);
        // Prepare the input (Eqn. (8)): minimal contiguous block copies.
        self.prep_plan.apply_batched(xs, cur, b);
        for (idx, h) in (1..=d).rev().enumerate() {
            let stage = &self.plan.stages()[idx];
            let (rows, k, cols) = (stage.gtilde_rows, stage.gtilde_cols, stage.v_cols);
            let a = self.gtildes[h - 1].data();
            // Inner stages scatter into the next stage's input layout with
            // no epilogue; the final stage (h = 1) writes `ys` in
            // assembled order with bias + activation fused into the same
            // store — one store per element either way.
            let (out, bias, act) = if h >= 2 {
                (&mut nxt[..rows * cols * b], None, Activation::Identity)
            } else {
                (&mut *ys, self.bias.as_deref(), self.activation)
            };
            gemm_into_mapped(
                a,
                &cur[..k * cols * b],
                out,
                rows,
                k,
                cols,
                b,
                &self.dest_maps[idx],
                bias,
                act,
            )?;
            std::mem::swap(&mut cur, &mut nxt);
            // Arithmetic scales with the batch; each core is streamed from
            // weight memory once per stage and reused across all B columns
            // (the paper's working-SRAM amortization).
            count.mults += stage.muls() * b as u64;
            count.adds += stage.muls() * b as u64;
            count.core_reads += stage.core_elems() as u64;
        }
        Ok(count)
    }

    /// The legacy pipeline body (see
    /// [`CompactEngine::matvec_batch_into_gather`]): GEMM into a scratch
    /// buffer, then a separate gather-table permutation pass per stage.
    /// Also the only path that can capture pre-transform intermediates
    /// (`capture` ⇒ `b == 1`), which the fused path never materializes.
    fn run_batched_gather(
        &self,
        xs: &[T],
        b: usize,
        ys: &mut [T],
        capture: bool,
    ) -> Result<(Option<StageTrace<T>>, OpCount)> {
        debug_assert!(b > 0);
        debug_assert!(!capture || b == 1, "tracing is a B=1 path");
        let shape = self.matrix.shape();
        let d = shape.ndim();
        let mut count = OpCount::default();
        // Cold path: local buffers and gather tables, materialized per
        // call (the engine no longer stores any index tables).
        let peak = self.plan.max_intermediate_elems() * b;
        let mut ping = vec![T::ZERO; peak];
        let mut pong = vec![T::ZERO; peak];
        let (mut cur, mut nxt) = (&mut ping, &mut pong);
        let prep_scatter = prepare_input_scatter(shape);
        let mut prep_gather = vec![0usize; prep_scatter.len()];
        for (j, &dst) in prep_scatter.iter().enumerate() {
            prep_gather[dst] = j;
        }
        copy_gather_batched(&prep_gather, xs, cur, b);
        let prepared_input = if capture {
            let n = shape.num_cols();
            let n_d = shape.col_modes[d - 1];
            Some(Tensor::from_vec(vec![n_d, n / n_d], cur[..n].to_vec())?)
        } else {
            None
        };
        let mut stage_outputs = Vec::new();
        // Execution order h = d..1; transform after every stage except the
        // last (whose output is gathered straight into `ys`).
        for (idx, h) in (1..=d).rev().enumerate() {
            let stage = &self.plan.stages()[idx];
            let (rows, k, cols) = (stage.gtilde_rows, stage.gtilde_cols, stage.v_cols);
            gemm_into(
                self.gtildes[h - 1].data(),
                &cur[..k * cols * b],
                &mut nxt[..rows * cols * b],
                rows,
                k,
                cols * b,
            )?;
            count.mults += stage.muls() * b as u64;
            count.adds += stage.muls() * b as u64;
            count.core_reads += stage.core_elems() as u64;
            std::mem::swap(&mut cur, &mut nxt);
            if capture {
                stage_outputs.push(Tensor::from_vec(
                    vec![rows, cols],
                    cur[..rows * cols].to_vec(),
                )?);
            }
            if h >= 2 {
                debug_assert_eq!(self.transforms[idx].h, h);
                let gather = self.transforms[idx].gather();
                copy_gather_batched(&gather, cur, nxt, b);
                std::mem::swap(&mut cur, &mut nxt);
            }
        }
        // Gather the output rows straight into the caller's buffer.
        let out_gather = assemble_output_gather(shape);
        copy_gather_batched(&out_gather, cur, ys, b);
        // The oracle applies bias + activation as the *separate* output
        // pass the fused epilogue eliminates — same scalar operations in
        // the same order, so the comparison stays bitwise.
        if self.bias.is_some() || self.activation == Activation::Relu {
            let m = shape.num_rows();
            for o in 0..m {
                for cb in 0..b {
                    let mut v = ys[o * b + cb];
                    if let Some(bias) = &self.bias {
                        v += bias[o];
                    }
                    if self.activation == Activation::Relu {
                        v = if v > T::ZERO { v } else { T::ZERO };
                    }
                    ys[o * b + cb] = v;
                }
            }
        }
        let trace = capture.then(|| StageTrace {
            prepared_input: prepared_input.expect("captured above"),
            stage_outputs,
        });
        Ok((trace, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tie_tensor::init;
    use tie_tensor::linalg::{matvec, Truncation};
    use tie_tt::inference::naive_matvec;
    use tie_tt::TtShape;

    fn random_case(
        seed: u64,
        m: Vec<usize>,
        n: Vec<usize>,
        r: usize,
    ) -> (CompactEngine<f64>, Tensor<f64>, Tensor<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let shape = TtShape::uniform_rank(m, n, r).unwrap();
        let tt = TtMatrix::<f64>::random(&mut rng, &shape, 0.8).unwrap();
        let dense = tt.to_dense().unwrap();
        let x: Tensor<f64> = init::uniform(&mut rng, vec![shape.num_cols()], 1.0);
        (CompactEngine::new(tt).unwrap(), dense, x)
    }

    #[test]
    fn shared_engine_is_thread_safe_and_deterministic() {
        // The serving layer shares one engine behind `Arc` across worker
        // threads. Concurrent matvecs through the shared workspace Mutex
        // must produce bit-identical results to a lone sequential call.
        let (engine, _dense, x) = random_case(77, vec![3, 3], vec![3, 3], 2);
        let mut want = vec![0.0f64; engine.matrix().shape().num_rows()];
        engine.matvec_into(x.data(), &mut want).unwrap();

        let engine = std::sync::Arc::new(engine);
        let x = std::sync::Arc::new(x.data().to_vec());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let engine = std::sync::Arc::clone(&engine);
                let x = std::sync::Arc::clone(&x);
                std::thread::spawn(move || {
                    let mut y = vec![0.0f64; engine.matrix().shape().num_rows()];
                    for _ in 0..16 {
                        engine.matvec_into(&x, &mut y).unwrap();
                    }
                    y
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), want);
        }
    }

    #[test]
    fn compact_equals_dense_various_shapes() {
        for (seed, m, n, r) in [
            (60, vec![2, 3], vec![3, 2], 2),
            (61, vec![4, 4, 4], vec![2, 3, 4], 3),
            (62, vec![2, 2, 2, 2], vec![3, 2, 2, 3], 2),
            (63, vec![5], vec![7], 1),
            (64, vec![3, 4], vec![4, 3], 5),
        ] {
            let (engine, dense, x) = random_case(seed, m, n, r);
            let (y, _) = engine.matvec(&x).unwrap();
            let want = matvec(&dense, &x).unwrap();
            assert!(
                y.approx_eq(&want, 1e-9),
                "compact != dense for shape {} (seed {seed}): max diff {}",
                engine.matrix().shape(),
                y.sub(&want).unwrap().max_abs()
            );
        }
    }

    #[test]
    fn compact_equals_naive_scheme() {
        let (engine, _, x) = random_case(65, vec![2, 3, 2], vec![3, 2, 2], 2);
        let (y_c, _) = engine.matvec(&x).unwrap();
        let (y_n, _) = naive_matvec(engine.matrix(), &x).unwrap();
        assert!(y_c.approx_eq(&y_n, 1e-10));
    }

    #[test]
    fn measured_mults_match_plan_and_formula() {
        let (engine, _, x) = random_case(66, vec![3, 2, 4], vec![2, 4, 3], 3);
        let (_, count) = engine.matvec(&x).unwrap();
        assert_eq!(count.mults, engine.plan().total_muls());
        assert_eq!(
            count.mults,
            crate::counts::mul_compact(engine.matrix().shape())
        );
    }

    #[test]
    fn core_reads_are_once_per_stage() {
        let (engine, _, x) = random_case(67, vec![2, 2], vec![3, 3], 2);
        let (_, count) = engine.matvec(&x).unwrap();
        assert_eq!(
            count.core_reads as usize,
            engine.matrix().shape().num_params(),
            "each core element read exactly once across the pass"
        );
    }

    #[test]
    fn compact_uses_fewer_mults_than_naive_measured() {
        let (engine, _, x) = random_case(68, vec![4, 4], vec![4, 4], 4);
        let (_, c_compact) = engine.matvec(&x).unwrap();
        let (_, c_naive) = naive_matvec(engine.matrix(), &x).unwrap();
        assert!(
            c_compact.mults * 2 < c_naive.mults,
            "compact {} vs naive {}",
            c_compact.mults,
            c_naive.mults
        );
    }

    #[test]
    fn traced_run_exposes_all_stages() {
        let (engine, _, x) = random_case(69, vec![2, 3, 2], vec![2, 2, 3], 2);
        let (y, trace) = engine.matvec_traced(&x).unwrap();
        assert_eq!(trace.stage_outputs.len(), 3);
        // Shapes follow the plan.
        for (out, stage) in trace.stage_outputs.iter().zip(engine.plan().stages()) {
            assert_eq!(out.dims(), &[stage.gtilde_rows, stage.v_cols]);
        }
        // Trace is consistent with the untraced result.
        let (y2, _) = engine.matvec(&x).unwrap();
        assert!(y.approx_eq(&y2, 0.0));
    }

    #[test]
    fn batch_matches_per_column() {
        let (engine, dense, _) = random_case(70, vec![2, 3], vec![3, 2], 2);
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let xs: Tensor<f64> = init::uniform(&mut rng, vec![6, 4], 1.0);
        let (ys, _) = engine.matvec_batch(&xs).unwrap();
        for c in 0..4 {
            let x = xs.cols(c, c + 1).unwrap().reshaped(vec![6]).unwrap();
            let want = matvec(&dense, &x).unwrap();
            let got = ys.cols(c, c + 1).unwrap().reshaped(vec![6]).unwrap();
            assert!(got.approx_eq(&want, 1e-9), "column {c}");
        }
        assert!(engine
            .matvec_batch(&Tensor::<f64>::zeros(vec![5, 2]))
            .is_err());
    }

    #[test]
    fn batch_is_bitwise_equal_to_single_column_runs() {
        // The batched pass and the B=1 pass execute the same per-column
        // arithmetic (the batch only rides along as an inner index), so
        // they must agree bitwise, not just approximately.
        let (engine, _, _) = random_case(80, vec![2, 3, 2], vec![3, 2, 2], 2);
        let n = engine.matrix().shape().num_cols();
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        let xs: Tensor<f64> = init::uniform(&mut rng, vec![n, 3], 1.0);
        let (ys, _) = engine.matvec_batch(&xs).unwrap();
        let b = 3;
        for c in 0..b {
            let x = xs.cols(c, c + 1).unwrap().reshaped(vec![n]).unwrap();
            let (y, _) = engine.matvec(&x).unwrap();
            for r in 0..y.num_elements() {
                assert_eq!(
                    ys.data()[r * b + c].to_bits(),
                    y.data()[r].to_bits(),
                    "row {r}, column {c}"
                );
            }
        }
    }

    #[test]
    fn batched_pass_runs_d_gemms_not_d_times_b() {
        // The acceptance criterion of the batched engine: arithmetic scales
        // with B but each stage streams its core exactly once — so
        // core_reads stays at num_params for ANY batch width, while a
        // per-column loop would report B × num_params.
        let (engine, _, _) = random_case(82, vec![3, 2, 4], vec![2, 4, 3], 3);
        let shape = engine.matrix().shape().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(83);
        for b in [1usize, 2, 7] {
            let xs: Tensor<f64> = init::uniform(&mut rng, vec![shape.num_cols(), b], 1.0);
            let (_, count) = engine.matvec_batch(&xs).unwrap();
            assert_eq!(
                count.mults,
                engine.plan().total_muls() * b as u64,
                "mults scale with B={b}"
            );
            assert_eq!(count.adds, count.mults, "one MAC per multiply (B={b})");
            assert_eq!(
                count.core_reads as usize,
                shape.num_params(),
                "weights streamed once per stage regardless of B={b}"
            );
        }
    }

    #[test]
    fn empty_batch_is_no_work() {
        // Zero-sized tensors are unrepresentable, so the degenerate batch
        // goes through the slice API: it must succeed and do nothing.
        let (engine, _, _) = random_case(84, vec![2, 2], vec![3, 2], 2);
        let count = engine.matvec_batch_into(&[], 0, &mut []).unwrap();
        assert_eq!(count, OpCount::default(), "no columns → no stages run");
    }

    #[test]
    fn batch_into_matches_tensor_batch() {
        let (engine, _, _) = random_case(87, vec![2, 3], vec![3, 2], 2);
        let n = engine.matrix().shape().num_cols();
        let m = engine.matrix().shape().num_rows();
        let mut rng = ChaCha8Rng::seed_from_u64(88);
        let xs: Tensor<f64> = init::uniform(&mut rng, vec![n, 5], 1.0);
        let (ys, count) = engine.matvec_batch(&xs).unwrap();
        let mut buf = vec![0.0f64; m * 5];
        let count2 = engine.matvec_batch_into(xs.data(), 5, &mut buf).unwrap();
        assert_eq!(count, count2);
        assert_eq!(buf, ys.data());
        // Length validation.
        assert!(engine.matvec_batch_into(xs.data(), 4, &mut buf).is_err());
        assert!(engine
            .matvec_batch_into(xs.data(), 5, &mut buf[1..])
            .is_err());
    }

    #[test]
    fn matvec_into_matches_matvec_and_is_reusable() {
        let (engine, _, x) = random_case(85, vec![2, 3, 2], vec![2, 2, 3], 2);
        let m = engine.matrix().shape().num_rows();
        let (y, count) = engine.matvec(&x).unwrap();
        let mut buf = vec![0.0f64; m];
        let count2 = engine.matvec_into(x.data(), &mut buf).unwrap();
        assert_eq!(count, count2);
        assert_eq!(buf, y.data(), "buffer path bitwise equals allocating path");
        // Second call reuses the warm workspace and must agree again.
        buf.fill(-1.0);
        engine.matvec_into(x.data(), &mut buf).unwrap();
        assert_eq!(buf, y.data());
        // Length validation on both sides.
        assert!(engine.matvec_into(&x.data()[1..], &mut buf).is_err());
        let mut short = vec![0.0f64; m - 1];
        assert!(engine.matvec_into(x.data(), &mut short).is_err());
    }

    #[test]
    fn cloned_engine_gets_fresh_workspace_and_same_results() {
        let (engine, _, x) = random_case(86, vec![3, 2], vec![2, 3], 2);
        let (y1, _) = engine.matvec(&x).unwrap(); // warm the workspace
        let clone = engine.clone();
        let (y2, _) = clone.matvec(&x).unwrap();
        assert!(y1.approx_eq(&y2, 0.0));
    }

    #[test]
    fn fused_path_is_bitwise_equal_to_gather_oracle() {
        // The tentpole acceptance check at engine level: the fused write
        // epilogue must reproduce the legacy gather-table pipeline
        // bit-for-bit, at any pool size, including degenerate shapes.
        for (seed, m, n, r) in [
            (90, vec![2, 3, 2], vec![3, 2, 2], 2),
            (91, vec![4, 4], vec![4, 4], 4),
            (92, vec![5], vec![7], 1),
            (93, vec![1, 4], vec![3, 1], 1),
            (94, vec![8, 2], vec![2, 2], 1),
        ] {
            let (engine, _, _) = random_case(seed, m, n, r);
            let nn = engine.matrix().shape().num_cols();
            let mm = engine.matrix().shape().num_rows();
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 1000);
            for b in [1usize, 3] {
                let xs: Tensor<f64> = init::uniform(&mut rng, vec![nn, b], 1.0);
                let mut fused = vec![0.0f64; mm * b];
                let mut oracle = vec![0.0f64; mm * b];
                let c1 = engine.matvec_batch_into(xs.data(), b, &mut fused).unwrap();
                let c2 = engine
                    .matvec_batch_into_gather(xs.data(), b, &mut oracle)
                    .unwrap();
                assert_eq!(c1, c2, "op counts agree (seed {seed}, b={b})");
                for (i, (f, o)) in fused.iter().zip(&oracle).enumerate() {
                    assert_eq!(f.to_bits(), o.to_bits(), "element {i} (seed {seed}, b={b})");
                }
            }
        }
    }

    #[test]
    fn fused_bias_relu_is_bitwise_equal_to_separate_epilogue_pass() {
        // The epilogue acceptance check: bias + ReLU fused into the final
        // GEMM store must bit-match the oracle's GEMM-then-separate-pass,
        // for every (bias?, activation) combination and batch width.
        let mut rng = ChaCha8Rng::seed_from_u64(96);
        let (engine, _, _) = random_case(97, vec![2, 3, 2], vec![3, 2, 2], 2);
        let nn = engine.matrix().shape().num_cols();
        let mm = engine.matrix().shape().num_rows();
        let bias_t: Tensor<f64> = init::uniform(&mut rng, vec![mm], 0.5);
        for act in [Activation::Identity, Activation::Relu] {
            for with_bias in [false, true] {
                let mut e = engine.clone().with_activation(act);
                if with_bias {
                    e = e.with_bias(bias_t.data().to_vec()).unwrap();
                }
                assert_eq!(e.activation(), act);
                assert_eq!(e.plan().activation(), act);
                for b in [1usize, 4] {
                    let xs: Tensor<f64> = init::uniform(&mut rng, vec![nn, b], 1.0);
                    let mut fused = vec![0.0f64; mm * b];
                    let mut oracle = vec![0.0f64; mm * b];
                    e.matvec_batch_into(xs.data(), b, &mut fused).unwrap();
                    e.matvec_batch_into_gather(xs.data(), b, &mut oracle)
                        .unwrap();
                    for (i, (f, o)) in fused.iter().zip(&oracle).enumerate() {
                        assert_eq!(
                            f.to_bits(),
                            o.to_bits(),
                            "element {i} (act {act:?}, bias {with_bias}, b={b})"
                        );
                    }
                    if act == Activation::Relu {
                        assert!(fused.iter().all(|&v| v >= 0.0));
                    }
                }
            }
        }
        // Bias length is validated.
        assert!(engine.clone().with_bias(vec![0.0; mm + 1]).is_err());
    }

    #[test]
    fn traffic_accounting_matches_plan() {
        let (engine, _, _) = random_case(95, vec![2, 3, 2], vec![3, 2, 2], 2);
        let shape = engine.matrix().shape();
        let stage_elems: u64 = engine
            .plan()
            .stages()
            .iter()
            .filter(|s| s.h >= 2)
            .map(|s| s.output_elems() as u64)
            .sum();
        assert_eq!(
            engine.transform_elided_bytes_per_sample(),
            (stage_elems + shape.num_rows() as u64) * 8
        );
        assert_eq!(engine.bytes_moved_per_sample(), shape.num_cols() as u64 * 8);
    }

    #[test]
    fn rejects_wrong_input_length() {
        let (engine, _, _) = random_case(72, vec![2, 2], vec![2, 2], 2);
        assert!(engine.matvec(&Tensor::<f64>::zeros(vec![3])).is_err());
        assert!(engine
            .matvec_traced(&Tensor::<f64>::zeros(vec![3]))
            .is_err());
    }

    #[test]
    fn works_after_from_dense_decomposition() {
        // End-to-end: dense -> TT (truncation-free) -> compact inference.
        let mut rng = ChaCha8Rng::seed_from_u64(73);
        let w: Tensor<f64> = init::uniform(&mut rng, vec![12, 8], 1.0);
        let tt = TtMatrix::from_dense(&w, &[3, 4], &[2, 4], Truncation::none()).unwrap();
        let engine = CompactEngine::new(tt).unwrap();
        let x: Tensor<f64> = init::uniform(&mut rng, vec![8], 1.0);
        let (y, _) = engine.matvec(&x).unwrap();
        assert!(y.approx_eq(&matvec(&w, &x).unwrap(), 1e-9));
    }
}
