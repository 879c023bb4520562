//! Load generation: the closed loop (callers that wait for replies) and
//! the open loop (seeded Poisson arrivals). Both check every response
//! bitwise against the expected output of its input.
//!
//! Both split their phase into windows and watch the host's steal time in
//! each. A phase of `s` seconds lasts until it has `s` one-second windows
//! with at most [`STEAL_LIMIT`] steal, or a third as long again, and its
//! figures come from its `s` calmest windows: time the hypervisor gave to
//! other guests counts neither for the program nor against it.

use crate::host::{process_cpu_s, steal_windows};
use crate::stats::{calmest, median, poisson_arrivals};
use crate::trace::{Span, Tracer, NONE};
use crate::workload::sub_seed;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tie_serve::{Client, Response, ServeError, Ticket};

/// Closed-loop client threads (the load may use at most two cores).
pub const CLIENTS: usize = 2;
/// Host steal share up to which a window counts as calm. Open-loop
/// latency already rises by a tenth in windows with 2% steal.
pub const STEAL_LIMIT: f64 = 0.015;
/// Requests each closed-loop client keeps in flight per served layer.
/// Both clients together then hold one full `max_batch` (16) batch per
/// layer, so the closed loop measures serving capacity rather than the
/// `max_wait` timer that would dispatch part-filled batches.
pub const IN_FLIGHT_PER_LAYER: usize = 8;

/// What the load drives: the service client, the layer names, and per
/// layer the input pool with the expected output of every input.
#[derive(Debug, Clone, Copy)]
pub struct Target<'a> {
    /// Submission handle.
    pub client: &'a Client,
    /// Registry keys, indexed by layer.
    pub names: &'a [String],
    /// `inputs[layer][i]`.
    pub inputs: &'a [Vec<Vec<f64>>],
    /// `expected[layer][i]`: the engine's own batch-1 output for that input.
    pub expected: &'a [Vec<Vec<f64>>],
}

impl Target<'_> {
    /// A uniformly random layer and pooled input.
    fn pick(&self, rng: &mut ChaCha8Rng) -> (usize, usize) {
        let layer = rng.gen_range(0..self.names.len());
        (layer, rng.gen_range(0..self.inputs[layer].len()))
    }

    /// True when `output` equals the expected output bit for bit.
    fn matches(&self, layer: usize, idx: usize, output: &[f64]) -> bool {
        let want = &self.expected[layer][idx];
        want.len() == output.len()
            && want
                .iter()
                .zip(output)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Request accounting shared by both loops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Submissions tried.
    pub attempted: u64,
    /// `try_submit` refusals (queue full).
    pub refused: u64,
    /// Submissions or responses that returned an error.
    pub failed: u64,
    /// Responses whose output differed from the expected one.
    pub wrong: u64,
}

impl Tally {
    /// Refused + failed + wrong.
    #[must_use]
    pub fn bad(&self) -> u64 {
        self.refused + self.failed + self.wrong
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    fn settle(
        &mut self,
        target: &Target<'_>,
        layer: usize,
        idx: usize,
        r: &Result<Response, ServeError>,
    ) -> bool {
        match r {
            Ok(resp) if target.matches(layer, idx, &resp.output) => true,
            Ok(_) => {
                self.wrong += 1;
                false
            }
            Err(_) => {
                self.failed += 1;
                false
            }
        }
    }
}

/// A phase's windows and the host steal share measured in each.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    /// Window length in seconds.
    pub width: f64,
    /// How many windows the phase's figures come from: its nominal length
    /// in windows.
    pub needed: usize,
    /// Steal share of each window measured, in order.
    pub steal: Vec<f64>,
}

impl Windows {
    /// Seconds measured.
    #[must_use]
    pub fn span(&self) -> f64 {
        self.width * self.steal.len() as f64
    }

    /// The window `t` seconds into the phase, if it was measured.
    #[must_use]
    pub fn index(&self, t: f64) -> Option<usize> {
        (t >= 0.0 && t < self.span()).then(|| ((t / self.width) as usize).min(self.steal.len() - 1))
    }

    /// Which windows the phase's figures come from: the [`Self::needed`]
    /// calmest.
    #[must_use]
    pub fn calm(&self) -> Vec<bool> {
        calmest(&self.steal, self.needed)
    }

    /// Windows kept ÷ windows measured.
    #[must_use]
    pub fn kept_share(&self) -> f64 {
        self.needed.min(self.steal.len()) as f64 / self.steal.len().max(1) as f64
    }
}

/// Samples the steal share of a phase of nominally `seconds` from `start`
/// in windows of about a second, until it has as many windows at or under
/// [`STEAL_LIMIT`] as it has nominal seconds or a third as many windows
/// again in all, then raises `stop`.
fn sample_windows(start: Instant, seconds: f64, stop: &AtomicBool) -> Windows {
    let needed = (seconds.round() as usize).max(1);
    let width = seconds / needed as f64;
    let most = needed + needed / 3;
    let steal = steal_windows(start, secs(width), |w| {
        w.len() >= most || w.iter().filter(|&&s| s <= STEAL_LIMIT).count() >= needed
    });
    stop.store(true, Ordering::SeqCst);
    Windows {
        width,
        needed,
        steal,
    }
}

/// One closed-loop request answered inside the measured windows.
#[derive(Debug, Clone, Copy)]
pub struct ClosedSample {
    /// Layer index.
    pub layer: usize,
    /// Requests in the batch it rode in.
    pub batch: usize,
    /// When its `wait` returned, seconds into the phase.
    pub done_s: f64,
    /// Time inside `Client::submit`, µs.
    pub submit_us: f64,
    /// `Response.latency`, µs.
    pub service_us: f64,
    /// `wait` return − submit start − `Response.latency`, µs.
    pub delivery_us: f64,
}

/// Result of a closed-loop phase.
#[derive(Debug, Clone, Default)]
pub struct Closed {
    /// The phase's windows.
    pub windows: Windows,
    /// Accounting over every request the phase sent.
    pub tally: Tally,
    /// Every correct response whose `wait` returned inside the measured
    /// windows.
    pub samples: Vec<ClosedSample>,
    /// CPU seconds the whole process used during the measured windows.
    pub cpu_s: f64,
}

impl Closed {
    /// Completed requests per second: the median over the phase's calm
    /// windows.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let kept: Vec<f64> = self
            .window_rates()
            .into_iter()
            .zip(self.windows.calm())
            .filter_map(|(r, c)| c.then_some(r))
            .collect();
        median(&kept)
    }

    /// Completed requests per second in each measured window.
    #[must_use]
    pub fn window_rates(&self) -> Vec<f64> {
        let mut counts = vec![0u64; self.windows.steal.len()];
        for x in &self.samples {
            if let Some(i) = self.windows.index(x.done_s) {
                counts[i] += 1;
            }
        }
        counts
            .iter()
            .map(|&c| c as f64 / self.windows.width)
            .collect()
    }
}

/// What a load thread remembers about a request in flight.
#[derive(Clone, Copy)]
struct Meta {
    layer: usize,
    idx: usize,
    start: Instant,
    submitted: Instant,
    request: u64,
}

struct Pending {
    ticket: Ticket,
    meta: Meta,
}

/// Runs [`CLIENTS`] threads for a phase of nominally `seconds` (see the
/// module notes), each keeping [`IN_FLIGHT_PER_LAYER`] requests per layer
/// in flight with the blocking `submit` and waiting for the oldest before
/// sending the next. Requests still in flight at the end are drained and
/// checked but not counted as completed.
#[must_use]
pub fn closed_loop(target: Target<'_>, seconds: f64, seed: u64, tracer: Option<&Tracer>) -> Closed {
    let start = Instant::now();
    let cpu0 = process_cpu_s();
    let stop = AtomicBool::new(false);
    let (parts, (windows, cpu1)): (Vec<Closed>, _) = std::thread::scope(|s| {
        let stop = &stop;
        let sampler = s.spawn(move || {
            let w = sample_windows(start, seconds, stop);
            (w, process_cpu_s())
        });
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                s.spawn(move || {
                    client_thread(target, start, stop, sub_seed(seed, t as u64), tracer)
                })
            })
            .collect();
        let parts = handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect();
        (parts, sampler.join().expect("steal sampler panicked"))
    });
    let mut out = Closed::default();
    for p in parts {
        out.tally.add(&p.tally);
        out.samples.extend(p.samples);
    }
    out.samples.retain(|x| windows.index(x.done_s).is_some());
    out.windows = windows;
    out.cpu_s = cpu0.zip(cpu1).map_or(f64::NAN, |(a, b)| b - a);
    out
}

fn client_thread(
    target: Target<'_>,
    start: Instant,
    stop: &AtomicBool,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Closed {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let in_flight = IN_FLIGHT_PER_LAYER * target.names.len();
    let mut queue: VecDeque<Pending> = VecDeque::with_capacity(in_flight);
    let mut out = Closed::default();
    let mut spans: Vec<Span> = Vec::new();
    let finish = |Pending { ticket, meta: p }: Pending, out: &mut Closed, spans: &mut Vec<Span>| {
        let wait_start = Instant::now();
        let result = ticket.wait();
        let end = Instant::now();
        let ok = out.tally.settle(&target, p.layer, p.idx, &result);
        let Ok(resp) = result else { return };
        if let Some(tr) = tracer {
            request_spans(tr, spans, &p, &resp, wait_start, end);
        }
        if ok {
            let service_us = resp.latency.as_secs_f64() * 1e6;
            out.samples.push(ClosedSample {
                layer: p.layer,
                batch: resp.batch_size,
                done_s: (end - start).as_secs_f64(),
                submit_us: (p.submitted - p.start).as_secs_f64() * 1e6,
                service_us,
                delivery_us: (end - p.start).as_secs_f64() * 1e6 - service_us,
            });
        }
    };
    while !stop.load(Ordering::Relaxed) {
        if queue.len() < in_flight {
            let (layer, idx) = target.pick(&mut rng);
            let input = target.inputs[layer][idx].clone();
            out.tally.attempted += 1;
            let start = Instant::now();
            match target.client.submit(&target.names[layer], input) {
                Ok(ticket) => queue.push_back(Pending {
                    ticket,
                    meta: Meta {
                        layer,
                        idx,
                        start,
                        submitted: Instant::now(),
                        request: tracer.map_or(NONE, Tracer::id),
                    },
                }),
                Err(_) => out.tally.failed += 1,
            }
        } else if let Some(p) = queue.pop_front() {
            finish(p, &mut out, &mut spans);
        }
    }
    while let Some(p) = queue.pop_front() {
        finish(p, &mut out, &mut spans);
    }
    if let Some(tr) = tracer {
        tr.absorb(spans);
    }
    out
}

/// The spans of one request: the request itself from `p.start` to the
/// end of its `wait`, and as its children the `submit` call, the service
/// time the response reports, and the `wait` call.
fn request_spans(
    tr: &Tracer,
    spans: &mut Vec<Span>,
    p: &Meta,
    resp: &Response,
    wait_start: Instant,
    end: Instant,
) {
    let root = p.request;
    let layer = p.layer;
    spans.push(tr.span(root, NONE, root, "request", layer, 0, p.start, end));
    let service_end = p.submitted.max(p.start + resp.latency);
    spans.push(tr.span(
        tr.id(),
        root,
        root,
        "serve.submit",
        layer,
        0,
        p.start,
        p.submitted,
    ));
    spans.push(tr.span(
        tr.id(),
        root,
        root,
        "serve.service",
        layer,
        resp.batch_size,
        p.start,
        service_end,
    ));
    spans.push(tr.span(tr.id(), root, root, "serve.wait", layer, 0, wait_start, end));
}

/// Result of an open-loop phase.
#[derive(Debug, Clone, Default)]
pub struct Open {
    /// Arrival rate, requests per second.
    pub rate: f64,
    /// The phase's windows.
    pub windows: Windows,
    /// When each scheduled request was due, seconds into the phase.
    pub due_s: Vec<f64>,
    /// Every correct response: when it was due, and its latency in ms
    /// (the generator's lateness plus `Response.latency`).
    pub answered: Vec<(f64, f64)>,
    /// How late the generator submitted each request, µs.
    pub lag_us: Vec<f64>,
    /// Accounting over every scheduled request.
    pub tally: Tally,
}

impl Open {
    /// Latency of every correct response, ms.
    #[must_use]
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.answered.iter().map(|&(_, l)| l).collect()
    }

    /// Whether a request due `due_s` into the phase fell in a calm window.
    fn calm_at(&self) -> impl Fn(f64) -> bool + '_ {
        let calm = self.windows.calm();
        move |due_s| self.windows.index(due_s).is_some_and(|i| calm[i])
    }

    /// Per measured window: how many correct responses were due in it, and
    /// their median latency in ms (`NaN` for none).
    #[must_use]
    pub fn window_latencies(&self) -> Vec<(usize, f64)> {
        let mut by_window = vec![Vec::new(); self.windows.steal.len()];
        for &(due, l) in &self.answered {
            if let Some(i) = self.windows.index(due) {
                by_window[i].push(l);
            }
        }
        by_window.iter().map(|v| (v.len(), median(v))).collect()
    }

    /// Latency of every correct response due in a calm window, ms.
    #[must_use]
    pub fn calm_latencies_ms(&self) -> Vec<f64> {
        let calm = self.calm_at();
        self.answered
            .iter()
            .filter_map(|&(due, l)| calm(due).then_some(l))
            .collect()
    }

    /// Of the requests due in calm windows: how many were answered
    /// correctly within `limit_ms`, and how many were scheduled.
    #[must_use]
    pub fn calm_within(&self, limit_ms: f64) -> (u64, u64) {
        let calm = self.calm_at();
        let within = self
            .answered
            .iter()
            .filter(|&&(due, l)| calm(due) && l <= limit_ms)
            .count();
        let scheduled = self.due_s.iter().filter(|&&due| calm(due)).count();
        (within as u64, scheduled as u64)
    }
}

struct Sent {
    pending: Pending,
    due: Instant,
}

/// Sends seeded Poisson arrivals at `rate` for a phase of nominally
/// `seconds` (see the module notes) from one generator thread with the
/// non-blocking `try_submit` (a refusal is a failure); one receiver thread
/// waits the tickets in order. A request's latency is counted from when it
/// was due, not from when the generator got to it, and the receiver uses
/// `Response.latency` rather than its own `wait` time, which would add the
/// head-of-line time of the tickets ahead of it.
#[must_use]
pub fn open_loop(
    target: Target<'_>,
    rate: f64,
    seconds: f64,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Open {
    // Longer than the longest phase; the generator stops with the sampler.
    let schedule = poisson_arrivals(seed, rate, 1.5 * seconds + 1.0);
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut pick_rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 1));
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (generated, received, windows) = std::thread::scope(|s| {
        let stop = &stop;
        let sampler = s.spawn(move || sample_windows(t0, seconds, stop));
        let receiver = s.spawn(move || {
            let mut out = Open::default();
            let mut spans = Vec::new();
            for sent in rx {
                let Pending { ticket, meta: p } = sent.pending;
                let wait_start = Instant::now();
                let result = ticket.wait();
                let end = Instant::now();
                if !out.tally.settle(&target, p.layer, p.idx, &result) {
                    continue;
                }
                let Ok(resp) = result else { continue };
                let lateness = p.start - sent.due;
                out.answered.push((
                    (sent.due - t0).as_secs_f64(),
                    (lateness + resp.latency).as_secs_f64() * 1e3,
                ));
                if let Some(tr) = tracer {
                    request_spans(tr, &mut spans, &p, &resp, wait_start, end);
                }
            }
            if let Some(tr) = tracer {
                tr.absorb(spans);
            }
            out
        });
        let generator = s.spawn(move || {
            let mut out = Open::default();
            for offset in schedule {
                let due = t0 + secs(offset);
                sleep_until(due);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                out.due_s.push(offset);
                let (layer, idx) = target.pick(&mut pick_rng);
                let input = target.inputs[layer][idx].clone();
                out.tally.attempted += 1;
                let start = Instant::now();
                out.lag_us.push((start - due).as_secs_f64() * 1e6);
                match target.client.try_submit(&target.names[layer], input) {
                    Ok(ticket) => {
                        let pending = Pending {
                            ticket,
                            meta: Meta {
                                layer,
                                idx,
                                start,
                                submitted: Instant::now(),
                                request: tracer.map_or(NONE, Tracer::id),
                            },
                        };
                        tx.send(Sent { pending, due })
                            .expect("open-loop receiver exited early");
                    }
                    Err(ServeError::QueueFull) => out.tally.refused += 1,
                    Err(_) => out.tally.failed += 1,
                }
            }
            out
        });
        (
            generator.join().expect("open-loop generator panicked"),
            receiver.join().expect("open-loop receiver panicked"),
            sampler.join().expect("steal sampler panicked"),
        )
    });
    let mut tally = generated.tally;
    tally.add(&received.tally);
    Open {
        rate,
        windows,
        due_s: generated.due_s,
        answered: received.answered,
        lag_us: generated.lag_us,
        tally,
    }
}

/// Sleeps until `deadline` (returns at once if it has passed).
fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// `seconds` as a `Duration`.
fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds.max(0.0))
}
