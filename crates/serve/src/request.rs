//! The in-flight request object and the caller-side [`Ticket`].

use crate::error::ServeError;
use crate::stats::StatsCore;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One inference result, delivered through a [`Ticket`].
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The output vector `y = W x` (length `M`).
    pub output: Vec<f64>,
    /// How many requests shared the batch this one rode in.
    pub batch_size: usize,
    /// Submit → response latency as measured by the worker.
    pub latency: Duration,
}

/// An accepted request travelling from client, through the queue, to a
/// worker.
///
/// The responder is single-shot: [`Request::respond`] consumes it. If a
/// request is dropped before anyone responded (a worker died holding it,
/// or the queue was abandoned), the `Drop` impl delivers [`ServeError::ShuttingDown`] and
/// counts the request as failed — so the accounting invariant
/// `submitted == completed + failed` holds on every path.
#[derive(Debug)]
pub(crate) struct Request {
    /// The registry's shared copy of the layer name.
    pub(crate) layer: Arc<str>,
    pub(crate) input: Vec<f64>,
    pub(crate) submitted_at: Instant,
    responder: Option<SyncSender<Result<Response, ServeError>>>,
    stats: Arc<StatsCore>,
}

impl Request {
    pub(crate) fn new(layer: Arc<str>, input: Vec<f64>, stats: Arc<StatsCore>) -> (Self, Ticket) {
        // Buffer of 1: the worker's send never blocks even if the caller
        // has not reached `wait` yet (or never does).
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let req = Request {
            layer,
            input,
            submitted_at: Instant::now(),
            responder: Some(tx),
            stats,
        };
        (req, Ticket { rx })
    }

    /// Disarms a request that never entered the queue (the push was refused),
    /// so its `Drop` neither answers nor counts a failure. The paired
    /// ticket is still held by the caller-side code and is simply dropped.
    pub(crate) fn defuse(mut self) {
        drop(self.responder.take());
    }

    /// Delivers the result and updates the counters. A dropped ticket is
    /// not an error: the work was done, the response is simply unread.
    pub(crate) fn respond(mut self, result: Result<Response, ServeError>) {
        let tx = self.responder.take().expect("respond is single-shot");
        match &result {
            Ok(resp) => self.stats.record_response(resp.latency),
            Err(_) => self.stats.record_failure(),
        }
        let _ = tx.send(result);
    }
}

impl Drop for Request {
    fn drop(&mut self) {
        if let Some(tx) = self.responder.take() {
            self.stats.record_failure();
            let _ = tx.send(Err(ServeError::ShuttingDown));
        }
    }
}

/// The caller's handle to one in-flight request.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// Returns the error the service answered with, or
    /// [`ServeError::ShuttingDown`] if the request was torn down.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Blocks up to `timeout` for the response.
    ///
    /// # Errors
    ///
    /// As [`Ticket::wait`], plus [`ServeError::ResponseTimeout`] when the
    /// deadline passes first (the ticket is consumed; the late response
    /// is dropped).
    pub fn wait_timeout(self, timeout: Duration) -> Result<Response, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => Err(ServeError::ResponseTimeout),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::ShuttingDown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> Arc<StatsCore> {
        Arc::new(StatsCore::new())
    }

    #[test]
    fn respond_delivers_and_counts() {
        let s = stats();
        let (req, ticket) = Request::new("l".into(), vec![1.0], Arc::clone(&s));
        req.respond(Ok(Response {
            output: vec![2.0],
            batch_size: 1,
            latency: Duration::from_micros(5),
        }));
        let got = ticket.wait().unwrap();
        assert_eq!(got.output, vec![2.0]);
        let snap = s.snapshot();
        assert_eq!((snap.completed, snap.failed), (1, 0));
    }

    #[test]
    fn dropped_request_fails_the_ticket() {
        let s = stats();
        let (req, ticket) = Request::new("l".into(), vec![1.0], Arc::clone(&s));
        drop(req);
        assert_eq!(ticket.wait(), Err(ServeError::ShuttingDown));
        assert_eq!(s.snapshot().failed, 1);
    }

    #[test]
    fn wait_timeout_expires() {
        let s = stats();
        let (req, ticket) = Request::new("l".into(), vec![1.0], Arc::clone(&s));
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(1)),
            Err(ServeError::ResponseTimeout)
        );
        drop(req); // still counted as failed exactly once
        assert_eq!(s.snapshot().failed, 1);
    }

    #[test]
    fn dropped_ticket_does_not_poison_respond() {
        let s = stats();
        let (req, ticket) = Request::new("l".into(), vec![1.0], Arc::clone(&s));
        drop(ticket);
        req.respond(Ok(Response {
            output: vec![0.0],
            batch_size: 1,
            latency: Duration::ZERO,
        }));
        assert_eq!(s.snapshot().completed, 1);
    }
}
