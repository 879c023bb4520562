//! Error type of the serving layer.

use tie_tensor::TensorError;

/// Everything that can go wrong between `submit` and `wait`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request named a layer that was never registered.
    UnknownLayer(String),
    /// The input vector length does not match the layer's `N`.
    WrongInputLength {
        /// Length the caller supplied.
        got: usize,
        /// Length the layer expects (`num_cols`).
        want: usize,
    },
    /// The input holds a NaN or an infinity. Rejected at submit: the
    /// quantized engines would otherwise map it silently to a finite code.
    NonFiniteInput {
        /// Index of the first non-finite element.
        index: usize,
    },
    /// `try_submit` found the bounded request queue full (backpressure).
    QueueFull,
    /// The service is shutting down (or has shut down); the request was
    /// not accepted, or its response channel was torn down mid-flight.
    ShuttingDown,
    /// `wait_timeout` elapsed before the response arrived. The request is
    /// still in flight; the ticket is consumed, so the eventual response
    /// is dropped.
    ResponseTimeout,
    /// Every replica of the target shard is draining or retired: the
    /// router fails fast instead of queueing onto a shard that can no
    /// longer accept work. Re-register the shard
    /// ([`crate::ShardedService::reregister_replica`]) to bring it back.
    ShardUnavailable {
        /// The shard the layer key routed to.
        shard: usize,
    },
    /// An invalid [`crate::ServeConfig`] field.
    Config(String),
    /// The engine rejected the batch (cannot happen for requests that
    /// passed submit-time validation; kept for faithful error plumbing).
    Engine(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownLayer(name) => write!(f, "unknown layer {name:?}"),
            ServeError::WrongInputLength { got, want } => {
                write!(f, "input has {got} elements, layer expects {want}")
            }
            ServeError::NonFiniteInput { index } => {
                write!(f, "input element {index} is not finite")
            }
            ServeError::QueueFull => write!(f, "request queue full"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::ResponseTimeout => write!(f, "timed out waiting for the response"),
            ServeError::ShardUnavailable { shard } => {
                write!(f, "all replicas of shard {shard} are draining or retired")
            }
            ServeError::Config(msg) => write!(f, "invalid service config: {msg}"),
            ServeError::Engine(msg) => write!(f, "engine error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<TensorError> for ServeError {
    fn from(e: TensorError) -> Self {
        ServeError::Engine(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ServeError::WrongInputLength { got: 3, want: 16 };
        assert!(e.to_string().contains('3') && e.to_string().contains("16"));
        assert!(ServeError::UnknownLayer("fc6".into())
            .to_string()
            .contains("fc6"));
        assert!(ServeError::QueueFull.to_string().contains("full"));
        assert!(ServeError::NonFiniteInput { index: 7 }
            .to_string()
            .contains('7'));
        assert!(ServeError::ShardUnavailable { shard: 3 }
            .to_string()
            .contains('3'));
    }

    #[test]
    fn converts_tensor_errors() {
        let te = TensorError::ShapeMismatch {
            left: vec![1],
            right: vec![2],
        };
        match ServeError::from(te) {
            ServeError::Engine(msg) => assert!(!msg.is_empty()),
            other => panic!("wrong variant {other:?}"),
        }
    }
}
