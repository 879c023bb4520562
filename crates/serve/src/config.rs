//! Service configuration.

use crate::error::ServeError;
use std::time::Duration;

/// Tuning knobs of an [`crate::InferenceService`].
///
/// Workers take requests straight from the queue: an idle worker takes
/// the layer whose oldest request has waited longest, up to `max_batch`
/// of its requests, however few are pending. Nothing waits for a batch to
/// fill; batches grow with load, as requests queue up while every worker
/// is busy. `max_batch = 1` serves one request per engine call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// The most requests of one layer a worker takes as one batch (≥ 1).
    pub max_batch: usize,
    /// Capacity of the bounded request queue shared by all clients
    /// (≥ 1), counted over all layers. `try_submit` fails with
    /// [`ServeError::QueueFull`] and `submit` blocks when it is full —
    /// this is the backpressure bound.
    pub queue_capacity: usize,
    /// Worker threads executing batches. `0` means auto: resolve from
    /// [`tie_tensor::parallel::num_threads`] (which honours the
    /// `set_num_threads` override and the `TIE_THREADS` environment
    /// variable), capped at 8.
    ///
    /// The default is one serial executor per core: each worker runs its
    /// engine calls at width 1 on its own thread and never dispatches to
    /// the kernel pool in `tie_tensor::pool`, so the workers, not the
    /// pool, fill the cores (see DESIGN.md §11.3 and
    /// `tests/pool_nested_serve.rs`).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            queue_capacity: 1024,
            workers: 0,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for a zero `max_batch` or a zero
    /// `queue_capacity`.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::Config("max_batch must be >= 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::Config("queue_capacity must be >= 1".into()));
        }
        Ok(())
    }

    /// The actual worker-thread count: `workers`, or the
    /// `tie_tensor::parallel` resolution capped at 8 when `workers == 0`.
    #[must_use]
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            tie_tensor::parallel::num_threads().clamp(1, 8)
        }
    }
}

/// Tuning knobs of a [`crate::ShardedService`].
///
/// A sharded service is `shards × replicas` independent
/// [`crate::InferenceService`]s behind one consistent-hash router: each
/// shard owns the registry partition the [`crate::HashRing`] assigns to
/// it, and each of its replicas runs the full batching/backpressure/drain
/// discipline of a single service over that partition (bounded queue of
/// [`ServeConfig::queue_capacity`] per replica).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards the registry is partitioned into (≥ 1).
    pub shards: usize,
    /// Replicas per shard (≥ 1). Every replica of a shard holds the same
    /// partition; the router spreads load across them round-robin.
    pub replicas: usize,
    /// Ring points per shard on the [`crate::HashRing`] (≥ 1). More
    /// vnodes → more uniform key spread; 64 keeps shard load within a
    /// small factor of ideal (property-tested).
    pub vnodes: usize,
    /// Per-replica service configuration (batching knobs, queue bound,
    /// worker threads).
    pub replica: ServeConfig,
    /// How many bounded-backoff retry rounds
    /// [`crate::ShardedClient::submit`] performs when every replica of
    /// the target shard reports a full queue, before giving up with
    /// [`ServeError::QueueFull`]. `0` disables retrying.
    pub submit_retries: usize,
    /// Base backoff slept between retry rounds; round `k` (1-based)
    /// sleeps `k × retry_backoff` (linear backoff, bounded by
    /// `submit_retries`).
    pub retry_backoff: Duration,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            replicas: 2,
            vnodes: 64,
            replica: ServeConfig::default(),
            submit_retries: 8,
            retry_backoff: Duration::from_micros(50),
        }
    }
}

impl ShardConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for zero `shards`, `replicas` or
    /// `vnodes`, or an invalid per-replica [`ServeConfig`].
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.shards == 0 {
            return Err(ServeError::Config("shards must be >= 1".into()));
        }
        if self.replicas == 0 {
            return Err(ServeError::Config("replicas must be >= 1".into()));
        }
        if self.vnodes == 0 {
            return Err(ServeError::Config("vnodes must be >= 1".into()));
        }
        self.replica.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ServeConfig::default().validate().is_ok());
        assert!(ShardConfig::default().validate().is_ok());
    }

    #[test]
    fn shard_config_rejects_degenerate_knobs() {
        for bad in [
            ShardConfig {
                shards: 0,
                ..ShardConfig::default()
            },
            ShardConfig {
                replicas: 0,
                ..ShardConfig::default()
            },
            ShardConfig {
                vnodes: 0,
                ..ShardConfig::default()
            },
            ShardConfig {
                replica: ServeConfig {
                    max_batch: 0,
                    ..ServeConfig::default()
                },
                ..ShardConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn rejects_degenerate_knobs() {
        let cfg = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn worker_resolution() {
        let cfg = ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        };
        assert_eq!(cfg.resolved_workers(), 3);
        let auto = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let w = auto.resolved_workers();
        assert!((1..=8).contains(&w));
    }
}
