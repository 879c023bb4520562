//! The shared engine registry: prepared engines keyed by layer name.
//!
//! Three backends coexist under one namespace: float [`CompactEngine`]s,
//! bit-accurate fixed-point [`QuantizedEngine`]s, and pipeline-parallel
//! [`PipelinedEngine`]s (which wrap either datapath) — a name maps to
//! exactly one of the three, and clients neither know nor care which
//! (same submit API, same `f64` responses; the quantized backends feed
//! the saturation counters in [`crate::ServiceStats`], the pipelined one
//! additionally feeds the `pipeline_*` occupancy/stall/handoff counters).
//!
//! Engines are stored behind [`Arc`] so the service, every client handle,
//! and every worker can hold the same prepared layer without copying the
//! unfolded cores or index maps. Both engine types are `Send + Sync`
//! (audited in their crates): the only mutable state is a `Mutex`-guarded
//! scratch workspace. Workers that want contention-free scratch clone the
//! engine (a clone shares nothing mutable — it starts with a fresh
//! workspace).

use crate::worker::WorkerEngine;
use std::collections::HashMap;
use std::sync::Arc;
use tie_core::{Activation, CompactEngine, DeploymentPlan, PlanBackend, Result};
use tie_sim::{PipelinedEngine, QuantConfig, QuantizedEngine};
use tie_tensor::TensorError;
use tie_tt::TtMatrix;

/// Layer-name → prepared-engine map handed to
/// [`crate::InferenceService::start`].
///
/// Cloning a registry clones only the `Arc` handles, never the engines —
/// the sharded layer leans on this to hand every replica of a shard its
/// own registry value over the same shared engines.
#[derive(Debug, Default, Clone)]
pub struct EngineRegistry {
    // Keys are shared names: a request carries its layer's key by `Arc`,
    // so submitting never copies the name.
    engines: HashMap<Arc<str>, Arc<CompactEngine<f64>>>,
    quantized: HashMap<Arc<str>, Arc<QuantizedEngine>>,
    pipelined: HashMap<Arc<str>, Arc<PipelinedEngine>>,
}

impl EngineRegistry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a float `engine` under `name`, replacing any previous
    /// entry (of either backend) with that name. Returns `self` for
    /// chaining.
    pub fn insert(&mut self, name: impl Into<String>, engine: CompactEngine<f64>) -> &mut Self {
        self.insert_shared(name, Arc::new(engine))
    }

    /// Registers a float `engine` under `name` with `activation` fused
    /// into its final-stage GEMM epilogue (so served responses come back
    /// post-activation without a separate output pass). Equivalent to
    /// `insert(name, engine.with_activation(activation))`.
    pub fn insert_with_activation(
        &mut self,
        name: impl Into<String>,
        engine: CompactEngine<f64>,
        activation: Activation,
    ) -> &mut Self {
        self.insert(name, engine.with_activation(activation))
    }

    /// Registers an already-shared float engine under `name`.
    pub fn insert_shared(
        &mut self,
        name: impl Into<String>,
        engine: Arc<CompactEngine<f64>>,
    ) -> &mut Self {
        let name: Arc<str> = name.into().into();
        self.quantized.remove(&name);
        self.pipelined.remove(&name);
        self.engines.insert(name, engine);
        self
    }

    /// Registers a fixed-point `engine` under `name`, replacing any
    /// previous entry (of either backend) with that name. Requests to this
    /// layer run the bit-accurate TIE datapath and feed the
    /// `quant_*` counters in [`crate::ServiceStats`].
    pub fn insert_quantized(
        &mut self,
        name: impl Into<String>,
        engine: QuantizedEngine,
    ) -> &mut Self {
        self.insert_quantized_shared(name, Arc::new(engine))
    }

    /// Registers a fixed-point `engine` under `name` with `activation`
    /// fused into its final requantization epilogue (applied to the
    /// clipped 32-bit code before narrowing; saturation counters are
    /// unchanged). Equivalent to
    /// `insert_quantized(name, engine.with_activation(activation))`.
    pub fn insert_quantized_with_activation(
        &mut self,
        name: impl Into<String>,
        engine: QuantizedEngine,
        activation: Activation,
    ) -> &mut Self {
        self.insert_quantized(name, engine.with_activation(activation))
    }

    /// Registers an already-shared fixed-point engine under `name`.
    pub fn insert_quantized_shared(
        &mut self,
        name: impl Into<String>,
        engine: Arc<QuantizedEngine>,
    ) -> &mut Self {
        let name: Arc<str> = name.into().into();
        self.engines.remove(&name);
        self.pipelined.remove(&name);
        self.quantized.insert(name, engine);
        self
    }

    /// Registers a pipeline-parallel `engine` under `name`, replacing any
    /// previous entry (of any backend) with that name. Requests to this
    /// layer stream through the engine's stage pipeline and feed the
    /// `pipeline_*` counters in [`crate::ServiceStats`] (plus the
    /// `quant_*` counters when the wrapped datapath is quantized).
    pub fn insert_pipelined(
        &mut self,
        name: impl Into<String>,
        engine: PipelinedEngine,
    ) -> &mut Self {
        self.insert_pipelined_shared(name, Arc::new(engine))
    }

    /// Registers an already-shared pipeline-parallel engine under `name`.
    pub fn insert_pipelined_shared(
        &mut self,
        name: impl Into<String>,
        engine: Arc<PipelinedEngine>,
    ) -> &mut Self {
        let name: Arc<str> = name.into().into();
        self.engines.remove(&name);
        self.quantized.remove(&name);
        self.pipelined.insert(name, engine);
        self
    }

    /// Registers an engine built from a [`DeploymentPlan`] — the
    /// autotuner's artifact — over `matrix`, the compiled TT weights the
    /// plan describes. The plan's backend, fused activation, and quant
    /// calibration margin all take effect, and the engine runs its stages
    /// sequentially on the calling worker's thread:
    ///
    /// * `Float` → [`CompactEngine`],
    /// * `Quantized` → [`QuantizedEngine`] calibrated at the plan's
    ///   `quant_margin` over `quant` (pass [`QuantConfig::default`] unless
    ///   serving needs custom formats).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an invalid plan or a
    /// `matrix` whose TT layout differs from the plan's shape (the plan
    /// would misdescribe the engine), and propagates construction errors.
    pub fn insert_from_plan(
        &mut self,
        plan: &DeploymentPlan,
        matrix: TtMatrix<f64>,
        quant: QuantConfig,
    ) -> Result<&mut Self> {
        plan.validate()?;
        if matrix.shape() != &plan.shape {
            return Err(TensorError::InvalidArgument {
                message: format!(
                    "matrix layout {:?}x{:?} ranks {:?} does not match plan `{}`",
                    matrix.shape().row_modes,
                    matrix.shape().col_modes,
                    matrix.shape().ranks,
                    plan.layer
                ),
            });
        }
        let name = plan.layer.clone();
        Ok(match plan.backend {
            PlanBackend::Float => self.insert(
                name,
                CompactEngine::new(matrix)?.with_activation(plan.activation),
            ),
            PlanBackend::Quantized => self.insert_quantized(
                name,
                QuantizedEngine::new(matrix, quant.with_probe_margin(plan.quant_margin))?
                    .with_activation(plan.activation),
            ),
        })
    }

    /// The shared float engine registered under `name` (`None` if the name
    /// is unregistered or quantized).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<CompactEngine<f64>>> {
        self.engines.get(name).cloned()
    }

    /// The shared fixed-point engine registered under `name` (`None` if
    /// the name is unregistered or float).
    #[must_use]
    pub fn get_quantized(&self, name: &str) -> Option<Arc<QuantizedEngine>> {
        self.quantized.get(name).cloned()
    }

    /// The shared pipeline-parallel engine registered under `name`
    /// (`None` if the name is unregistered or sequential).
    #[must_use]
    pub fn get_pipelined(&self, name: &str) -> Option<Arc<PipelinedEngine>> {
        self.pipelined.get(name).cloned()
    }

    /// True if `name` is registered with the fixed-point backend (either
    /// the sequential quantized engine or a pipelined wrapper around one).
    #[must_use]
    pub fn is_quantized(&self, name: &str) -> bool {
        self.quantized.contains_key(name)
            || self.pipelined.get(name).is_some_and(|e| e.is_quantized())
    }

    /// `(rows M, cols N)` of the layer registered under `name`, either
    /// backend.
    #[must_use]
    pub fn dims(&self, name: &str) -> Option<(usize, usize)> {
        self.lookup(name).map(|(_, dims)| dims)
    }

    /// The registry's shared copy of `name` and the layer's `(M, N)`.
    pub(crate) fn lookup(&self, name: &str) -> Option<(&Arc<str>, (usize, usize))> {
        if let Some((key, e)) = self.engines.get_key_value(name) {
            let shape = e.matrix().shape();
            return Some((key, (shape.num_rows(), shape.num_cols())));
        }
        if let Some((key, e)) = self.quantized.get_key_value(name) {
            return Some((key, (e.num_rows(), e.num_cols())));
        }
        self.pipelined
            .get_key_value(name)
            .map(|(key, e)| (key, (e.num_rows(), e.num_cols())))
    }

    /// All registered layer names (every backend), sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .engines
            .keys()
            .chain(self.quantized.keys())
            .chain(self.pipelined.keys())
            .map(|name| name.to_string())
            .collect();
        names.sort();
        names
    }

    /// Number of registered layers (every backend).
    #[must_use]
    pub fn len(&self) -> usize {
        self.engines.len() + self.quantized.len() + self.pipelined.len()
    }

    /// True if no layer is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty() && self.quantized.is_empty() && self.pipelined.is_empty()
    }

    /// One private (fresh-workspace) clone of every float engine, for a
    /// worker that wants to execute without contending on the shared
    /// scratch `Mutex`. TT compression is what makes this affordable: a
    /// cloned engine costs `num_params` weights plus the index vectors,
    /// orders of magnitude below the dense layer it represents.
    #[must_use]
    pub fn clone_engines(&self) -> HashMap<String, CompactEngine<f64>> {
        self.engines
            .iter()
            .map(|(name, e)| (name.to_string(), (**e).clone()))
            .collect()
    }

    /// Partitions the registry into `parts` sub-registries by routing
    /// every layer name through the ring: layer `name` lands in partition
    /// `ring.shard_for(name)`. Engines are shared by `Arc`, so
    /// partitioning copies nothing but the map entries — each replica of
    /// the owning shard later takes its own private clones exactly like a
    /// single service's workers do.
    ///
    /// Partitions of shards that own no registered layer come back empty;
    /// the sharded service simply starts no replicas for them (a valid
    /// layer key can never route there — it would have been partitioned
    /// there in the first place).
    #[must_use]
    pub fn partition(&self, ring: &crate::HashRing) -> Vec<EngineRegistry> {
        let max_shard = ring.shards().iter().copied().max().unwrap_or(0);
        let mut parts: Vec<EngineRegistry> =
            (0..=max_shard).map(|_| EngineRegistry::new()).collect();
        for (name, engine) in &self.engines {
            parts[ring.shard_for(name)].insert_shared(&**name, Arc::clone(engine));
        }
        for (name, engine) in &self.quantized {
            parts[ring.shard_for(name)].insert_quantized_shared(&**name, Arc::clone(engine));
        }
        for (name, engine) in &self.pipelined {
            parts[ring.shard_for(name)].insert_pipelined_shared(&**name, Arc::clone(engine));
        }
        parts
    }

    /// Private clones of **every** engine, all backends, wrapped for the
    /// worker loop. A pipelined clone spawns its own `depth − 1` stage
    /// threads and channel slabs (sharing the immutable chain), so each
    /// worker streams its batches through a private pipeline with no
    /// cross-worker contention.
    #[must_use]
    pub(crate) fn worker_engines(&self) -> HashMap<String, WorkerEngine> {
        self.engines
            .iter()
            .map(|(name, e)| (name.to_string(), WorkerEngine::Float((**e).clone())))
            .chain(
                self.quantized
                    .iter()
                    .map(|(name, e)| (name.to_string(), WorkerEngine::Quantized((**e).clone()))),
            )
            .chain(
                self.pipelined
                    .iter()
                    .map(|(name, e)| (name.to_string(), WorkerEngine::Pipelined((**e).clone()))),
            )
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tie_tt::{TtMatrix, TtShape};

    fn engine(seed: u64) -> CompactEngine<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
        CompactEngine::new(TtMatrix::random(&mut rng, &shape, 0.5).unwrap()).unwrap()
    }

    #[test]
    fn insert_get_dims_names() {
        let mut reg = EngineRegistry::new();
        assert!(reg.is_empty());
        reg.insert("fc1", engine(1)).insert("fc0", engine(2));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["fc0".to_string(), "fc1".to_string()]);
        assert_eq!(reg.dims("fc1"), Some((6, 6)));
        assert!(reg.get("fc1").is_some());
        assert!(reg.get("nope").is_none());
        assert_eq!(reg.dims("nope"), None);
    }

    #[test]
    fn shared_engine_is_the_same_allocation() {
        let mut reg = EngineRegistry::new();
        let shared = Arc::new(engine(3));
        reg.insert_shared("fc", Arc::clone(&shared));
        assert!(Arc::ptr_eq(&reg.get("fc").unwrap(), &shared));
    }

    #[test]
    fn quantized_and_float_share_one_namespace() {
        use tie_sim::QuantConfig;
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
        let q = QuantizedEngine::new(
            TtMatrix::random(&mut rng, &shape, 0.5).unwrap(),
            QuantConfig::default(),
        )
        .unwrap();
        let mut reg = EngineRegistry::new();
        reg.insert("fc", engine(10))
            .insert_quantized("qfc", q.clone());
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["fc".to_string(), "qfc".to_string()]);
        assert_eq!(reg.dims("qfc"), Some((6, 6)));
        assert!(reg.is_quantized("qfc") && !reg.is_quantized("fc"));
        assert!(reg.get_quantized("qfc").is_some() && reg.get("qfc").is_none());
        // Re-registering a name under the other backend replaces it.
        reg.insert_quantized("fc", q);
        assert_eq!(reg.len(), 2);
        assert!(reg.is_quantized("fc") && reg.get("fc").is_none());
        assert_eq!(reg.worker_engines().len(), 2);
        assert_eq!(reg.clone_engines().len(), 0); // float-only view
    }

    #[test]
    fn pipelined_engines_share_the_namespace_and_partition() {
        use crate::HashRing;
        use tie_core::PipelineConfig;
        use tie_sim::PipelinedEngine;
        let float = engine(20);
        let pipelined = PipelinedEngine::float(&float, PipelineConfig::default()).unwrap();
        let mut reg = EngineRegistry::new();
        reg.insert("fc", engine(21))
            .insert_pipelined("pfc", pipelined.clone());
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["fc".to_string(), "pfc".to_string()]);
        assert_eq!(reg.dims("pfc"), Some((6, 6)));
        assert!(reg.get_pipelined("fc").is_none());
        assert!(!reg.is_quantized("pfc"), "float pipeline is not quantized");
        assert!(reg.get_pipelined("pfc").is_some() && reg.get("pfc").is_none());
        // Re-registering a pipelined name as float replaces it.
        reg.insert("pfc", engine(22));
        assert_eq!(reg.len(), 2);
        assert!(reg.get_pipelined("pfc").is_none() && reg.get("pfc").is_some());
        // And the other direction.
        reg.insert_pipelined("fc", pipelined);
        assert!(reg.get_pipelined("fc").is_some());
        assert_eq!(reg.worker_engines().len(), 2);
        // Partitioning carries pipelined layers to their ring shards.
        let ring = HashRing::new(3, 32).unwrap();
        let parts = reg.partition(&ring);
        assert_eq!(parts.iter().map(EngineRegistry::len).sum::<usize>(), 2);
        let owner = &parts[ring.shard_for("fc")];
        assert!(Arc::ptr_eq(
            &owner.get_pipelined("fc").unwrap(),
            &reg.get_pipelined("fc").unwrap()
        ));
    }

    #[test]
    fn partition_routes_every_layer_to_its_ring_shard() {
        use crate::HashRing;
        let mut reg = EngineRegistry::new();
        for i in 0..12 {
            reg.insert(format!("fc{i}"), engine(i));
        }
        let ring = HashRing::new(4, 64).unwrap();
        let parts = reg.partition(&ring);
        assert_eq!(parts.len(), 4);
        assert_eq!(
            parts.iter().map(EngineRegistry::len).sum::<usize>(),
            reg.len()
        );
        for (s, part) in parts.iter().enumerate() {
            for name in part.names() {
                assert_eq!(ring.shard_for(&name), s, "{name} in wrong partition");
                // Arc-shared, not deep-copied.
                assert!(Arc::ptr_eq(
                    &part.get(&name).unwrap(),
                    &reg.get(&name).unwrap()
                ));
            }
        }
    }

    #[test]
    fn insert_with_activation_fuses_relu_into_the_served_engine() {
        let mut reg = EngineRegistry::new();
        reg.insert("plain", engine(30)).insert_with_activation(
            "relu",
            engine(30),
            Activation::Relu,
        );
        assert_eq!(reg.get("relu").unwrap().activation(), Activation::Relu);
        let x: Vec<f64> = (0..6).map(|i| (i as f64 - 3.0) * 0.7).collect();
        let mut y_plain = vec![0.0f64; 6];
        let mut y_relu = vec![0.0f64; 6];
        reg.get("plain")
            .unwrap()
            .matvec_into(&x, &mut y_plain)
            .unwrap();
        reg.get("relu")
            .unwrap()
            .matvec_into(&x, &mut y_relu)
            .unwrap();
        assert!(y_plain.iter().any(|&v| v < 0.0), "need a clipped output");
        for (r, p) in y_relu.iter().zip(&y_plain) {
            let want = if *p > 0.0 { *p } else { 0.0 };
            assert_eq!(r.to_bits(), want.to_bits());
        }

        // Quantized path: fused ReLU on the served fixed-point engine.
        use tie_sim::QuantConfig;
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
        let q = QuantizedEngine::new(
            TtMatrix::random(&mut rng, &shape, 0.5).unwrap(),
            QuantConfig::default(),
        )
        .unwrap();
        reg.insert_quantized_with_activation("qrelu", q, Activation::Relu);
        assert_eq!(
            reg.get_quantized("qrelu").unwrap().activation(),
            Activation::Relu
        );
    }

    #[test]
    fn insert_from_plan_constructs_every_backend_combination() {
        use tie_core::{DeploymentPlan, PlanBackend};
        use tie_sim::QuantConfig;
        use tie_tensor::linalg::SvdMethod;

        let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        let matrix = TtMatrix::random(&mut rng, &shape, 0.5).unwrap();
        let plan = |name: &str, backend| DeploymentPlan {
            layer: name.to_string(),
            shape: shape.clone(),
            svd: SvdMethod::Jacobi,
            backend,
            batch: 4,
            activation: Activation::Relu,
            quant_margin: 1.5,
            modeled_cycles_per_sample: 0.0,
        };

        let mut reg = EngineRegistry::new();
        reg.insert_from_plan(
            &plan("float", PlanBackend::Float),
            matrix.clone(),
            QuantConfig::default(),
        )
        .unwrap()
        .insert_from_plan(
            &plan("quant", PlanBackend::Quantized),
            matrix.clone(),
            QuantConfig::default(),
        )
        .unwrap();

        assert_eq!(reg.len(), 2);
        assert_eq!(
            reg.get("float").unwrap().activation(),
            Activation::Relu,
            "plan epilogue must be fused"
        );
        assert!(reg.get_quantized("quant").is_some());
        // Plans build sequential engines only.
        assert!(reg.get_pipelined("float").is_none() && reg.get_pipelined("quant").is_none());
        // The plan's margin reaches the calibration.
        let wide = DeploymentPlan {
            quant_margin: 3.0,
            ..plan("wide", PlanBackend::Quantized)
        };
        reg.insert_from_plan(&wide, matrix.clone(), QuantConfig::default())
            .unwrap();
        let narrow = reg.get_quantized("quant").unwrap();
        let widened = reg.get_quantized("wide").unwrap();
        assert!(
            widened.stage_formats()[0].frac_bits() <= narrow.stage_formats()[0].frac_bits(),
            "wider margin can only cost fraction bits"
        );
        // A matrix that doesn't match the plan's layout is rejected.
        let other_shape = TtShape::uniform_rank(vec![3, 2], vec![2, 3], 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let other = TtMatrix::random(&mut rng, &other_shape, 0.5).unwrap();
        assert!(reg
            .insert_from_plan(
                &plan("bad", PlanBackend::Float),
                other,
                QuantConfig::default()
            )
            .is_err());
    }

    #[test]
    fn clone_engines_yields_private_copies() {
        let mut reg = EngineRegistry::new();
        reg.insert("fc", engine(4));
        let clones = reg.clone_engines();
        assert_eq!(clones.len(), 1);
        // The clone computes the same results as the shared original.
        let x = vec![0.5f64; 6];
        let mut y_shared = vec![0.0f64; 6];
        let mut y_clone = vec![0.0f64; 6];
        reg.get("fc")
            .unwrap()
            .matvec_into(&x, &mut y_shared)
            .unwrap();
        clones["fc"].matvec_into(&x, &mut y_clone).unwrap();
        assert_eq!(y_shared, y_clone);
    }
}
