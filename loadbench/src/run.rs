//! One benchmark run: generate the workload from the seed, deploy it,
//! compute every expected output, drive the phases, take the per-layer
//! timings (traced runs only) and report.

use crate::drive::{closed_loop, open_loop, Closed, Open, Tally, Target, Windows};
use crate::heap;
use crate::host::Host;
use crate::layers::{measure_layer, LayerTimes};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile_of, tail};
use crate::trace::{Span, Tracer, NONE};
use crate::workload::{
    compile_dense, deploy, input_pool, layers, sub_seed, total_secs, Call, Engine, Layer, Source,
    Workload, NO_LAYER,
};
use serde_json::Value;
use std::time::{Duration, Instant};
use tie_core::CompactEngine;
use tie_serve::{Client, ServiceStats};

/// Distinct seeded inputs per layer. Nothing in the served program caches
/// results, so drawing requests from a pool is safe; a change that adds a
/// cache must first add a workload without repeats.
pub const POOL: usize = 256;
/// Fixed probes per layer for `quant.output_rel_err`.
const PROBES: usize = 16;
/// Seed of those probes, the same in every run.
const PROBE_SEED: u64 = 0x0ea7_beef;
/// Wall time a traced run spends timing engines and stage GEMMs.
const LAYER_BUDGET_S: f64 = 3.0;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Seconds the run spends loading the service: the warm-up, the closed
    /// loop and both open-loop phases.
    pub seconds: f64,
    /// Take per-layer timings and write spans instead of the end-to-end
    /// measurement.
    pub trace: bool,
    /// One deployment, small pools and a small dense layer: with a second
    /// or so of `seconds`, a check that the whole path works, not a
    /// measurement.
    pub smoke: bool,
}

/// Phase lengths in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    /// Closed-loop warm-up, not recorded.
    pub warmup: f64,
    /// Closed loop (split in an untraced and a traced half when tracing).
    pub closed: f64,
    /// Open loop at the light rate.
    pub light: f64,
    /// Open loop at the heavy rate.
    pub heavy: f64,
}

impl Phases {
    /// Splits `seconds` of load between the phases. These are nominal
    /// lengths: a measured phase the host disturbs runs up to a third
    /// longer (see [`crate::drive`]).
    #[must_use]
    pub fn new(seconds: f64) -> Self {
        Phases {
            warmup: 0.05 * seconds,
            closed: 0.35 * seconds,
            light: 0.30 * seconds,
            heavy: 0.30 * seconds,
        }
    }
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every response matched its expected output.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, failed or answered wrongly.
    pub failed: u64,
    /// Every value measured, declared or not.
    pub values: Values,
    /// The full record: options, host, phases, values.
    pub record: Value,
    /// The span log of a traced run.
    pub spans: Option<Value>,
}

impl Outcome {
    /// The metrics the result line carries: end-to-end for an untraced
    /// run, per-layer for a traced one.
    ///
    /// # Errors
    ///
    /// Names a declared metric the run did not measure.
    pub fn metrics(&self, trace: bool) -> Result<Value, String> {
        self.values
            .to_json(if trace { PER_LAYER } else { END_TO_END })
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Reports set-up failures; wrong outputs are not errors but make
/// [`Outcome::correct`] false.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let host = Host::detect();
    let phases = Phases::new(opts.seconds);
    let (light_rate, heavy_rate) = opts.workload.rates();
    let slo_ms = opts.workload.slo_ms();
    println!("{}", host.summary());
    println!(
        "run: workload={} seed={} trace={} phases: warmup {:.2}s closed {:.2}s light {:.2}s @{} req/s heavy {:.2}s @{} req/s, slo {} ms",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        phases.warmup,
        phases.closed,
        phases.light,
        light_rate,
        phases.heavy,
        heavy_rate,
        slo_ms
    );
    let tracer = opts.trace.then(Tracer::new);
    let mut values = Values::default();

    // Input generation: weights and request pools, not part of set-up.
    let t = Instant::now();
    let layers = layers(opts.workload, opts.seed, opts.smoke)?;
    let names: Vec<String> = layers.iter().map(|l| l.name.clone()).collect();
    let pool = if opts.smoke { 8 } else { POOL };
    let inputs: Vec<Vec<Vec<f64>>> = layers
        .iter()
        .enumerate()
        .map(|(i, l)| input_pool(cols(l), pool, sub_seed(opts.seed, 1_000 + i as u64)))
        .collect();
    values.set("bench.weights_s", t.elapsed().as_secs_f64());

    // Set-up, several times for a median; the last deployment serves.
    // Heap counting starts after input generation, so the pools and
    // weights are not set-up memory.
    let reps = if opts.smoke {
        1
    } else {
        opts.workload.setup_reps()
    };
    let mut setups = Vec::new();
    let mut deployed = None;
    heap::arm();
    for _ in 0..reps {
        drop(deployed.take());
        let d = deploy(&layers, &inputs[0][0])?;
        setups.push(d.calls.clone());
        deployed = Some(d);
    }
    values.set("setup_heap_mib", heap::disarm_peak_mib());
    let deployed = deployed.ok_or("no deployment")?;
    let setup_s: Vec<f64> = setups.iter().map(|c| total_secs(c, "setup")).collect();
    let start_s: Vec<f64> = setups
        .iter()
        .map(|c| total_secs(c, "serve.start"))
        .collect();
    values.set("setup_s", median(&setup_s));
    values.set("serve.start_s", median(&start_s));

    // Expected outputs: each engine's own batch-1 result on a private
    // clone. Batched serving is bit-identical to batch-1 calls.
    let client = deployed.service.client();
    let engines = names
        .iter()
        .map(|n| Engine::private(client.registry(), n).ok_or(format!("layer {n} not registered")))
        .collect::<Result<Vec<_>, String>>()?;
    let expected = engines
        .iter()
        .zip(&inputs)
        .zip(&deployed.matrices)
        .map(|((e, pool), m)| {
            pool.iter()
                .map(|x| {
                    let mut y = vec![0.0; m.shape().num_rows()];
                    e.matvec_batch_into(x, 1, &mut y).map(|()| y)
                })
                .collect::<Result<Vec<_>, String>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    let target = Target {
        client: &client,
        names: &names,
        inputs: &inputs,
        expected: &expected,
    };

    let mut tally = Tally::default();
    tally.add(&closed_loop(target, phases.warmup, sub_seed(opts.seed, 2), None).tally);
    let before = client.stats();
    let (closed, traced) = if let Some(tr) = &tracer {
        let half = phases.closed / 2.0;
        let plain = closed_loop(target, half, sub_seed(opts.seed, 3), None);
        let traced = closed_loop(target, half, sub_seed(opts.seed, 4), Some(tr));
        (plain, Some(traced))
    } else {
        (
            closed_loop(target, phases.closed, sub_seed(opts.seed, 3), None),
            None,
        )
    };
    let light = open_loop(
        target,
        light_rate,
        phases.light,
        sub_seed(opts.seed, 5),
        tracer.as_ref(),
    );
    let heavy = open_loop(
        target,
        heavy_rate,
        phases.heavy,
        sub_seed(opts.seed, 6),
        tracer.as_ref(),
    );
    let after = client.stats();
    for t in [&closed.tally, &light.tally, &heavy.tally] {
        tally.add(t);
    }
    if let Some(t) = &traced {
        tally.add(&t.tally);
    }
    end_to_end(&mut values, &closed, &light, &heavy, slo_ms)?;
    log_phases(&closed, &light, &heavy, slo_ms);

    if let Some(tr) = &tracer {
        let traced = traced.as_ref().ok_or("traced closed loop missing")?;
        let budget = if opts.smoke {
            Duration::from_millis(2)
        } else {
            // Three batch sizes plus the stage GEMMs of every layer.
            let items: usize = deployed.matrices.iter().map(|m| 3 + m.shape().ndim()).sum();
            Duration::from_secs_f64(LAYER_BUDGET_S / items as f64)
        };
        let mut spans = Vec::new();
        let times = engines
            .iter()
            .enumerate()
            .map(|(i, e)| {
                measure_layer(
                    i,
                    e,
                    &deployed.matrices[i],
                    &inputs[i],
                    budget,
                    Some(tr),
                    &mut spans,
                )
            })
            .collect::<Result<Vec<_>, String>>()?;
        per_layer(&mut values, &times, traced, &before, &after);
        values.set("serve.throughput_rps", closed.throughput());
        values.set(
            "bench.trace_overhead",
            traced.throughput() / closed.throughput(),
        );

        // Compile timings: the set-up's own on cold deploy, otherwise one
        // compile of the cold-deploy layers so every workload reports them.
        let (calls, rel_errors) = if opts.workload == Workload::ColdDeploy {
            (
                setups.last().cloned().unwrap_or_default(),
                deployed.rel_errors.clone(),
            )
        } else {
            compile_probe(opts.seed, opts.smoke)?
        };
        values.set(
            "compile.s",
            total_secs(&calls, "compile.compile_dense_layer"),
        );
        values.set("quant.calibrate_s", total_secs(&calls, "quant.calibrate"));
        values.set(
            "compile.rel_error",
            rel_errors.iter().copied().fold(0.0, f64::max),
        );
        for (rep, calls) in setups.iter().enumerate() {
            setup_spans(tr, &mut spans, calls, rep);
        }
        tr.absorb(spans);
        let (rel_err, probe_tally) = output_rel_err(&client, &layers, &deployed.matrices)?;
        tally.add(&probe_tally);
        values.set("quant.output_rel_err", rel_err);
    }

    drop(client);
    let stats = deployed.service.shutdown();
    values.set("pipeline.stall_fraction", stats.pipeline_stall_fraction());
    values.set("quant.saturation_rate", stats.quant_saturation_rate());
    values.set("exit_rss_mb", peak_rss_mb()?);
    values.set(
        "error_rate",
        tally.bad() as f64 / tally.attempted.max(1) as f64,
    );
    println!(
        "requests: attempted {} refused {} failed {} wrong {} (error_rate {:.6})",
        tally.attempted,
        tally.refused,
        tally.failed,
        tally.wrong,
        values.get("error_rate").unwrap_or(f64::NAN)
    );

    let record = Value::Object(vec![
        (
            "workload".into(),
            Value::String(opts.workload.name().into()),
        ),
        ("seed".into(), Value::UInt(opts.seed)),
        ("trace".into(), Value::Bool(opts.trace)),
        ("smoke".into(), Value::Bool(opts.smoke)),
        ("host".into(), host.to_json()),
        (
            "phases_s".into(),
            Value::Object(vec![
                ("warmup".into(), Value::Float(phases.warmup)),
                ("closed".into(), Value::Float(phases.closed)),
                ("light".into(), Value::Float(phases.light)),
                ("heavy".into(), Value::Float(phases.heavy)),
            ]),
        ),
        (
            "rates_rps".into(),
            Value::Array(vec![Value::Float(light_rate), Value::Float(heavy_rate)]),
        ),
        ("slo_ms".into(), Value::Float(slo_ms)),
        ("setup_reps".into(), Value::UInt(reps as u64)),
        ("requests".into(), tally_json(&tally)),
        ("values".into(), values.to_object()),
        ("windows".into(), windows_json(&closed, &light, &heavy)),
    ]);
    Ok(Outcome {
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed: tally.bad(),
        values,
        record,
        spans: tracer.map(|tr| tr.to_json(&names)),
    })
}

/// Per phase, each window's host steal share, whether the phase's figures
/// use it, and, for the closed loop, its completion rate; for the open
/// loops, its count of answered requests and their median latency.
fn windows_json(closed: &Closed, light: &Open, heavy: &Open) -> Value {
    let floats = |v: &mut dyn Iterator<Item = f64>| Value::Array(v.map(Value::Float).collect());
    let common = |w: &Windows| {
        vec![
            ("width_s".into(), Value::Float(w.width)),
            ("steal".into(), floats(&mut w.steal.iter().copied())),
            (
                "kept".into(),
                Value::Array(w.calm().into_iter().map(Value::Bool).collect()),
            ),
        ]
    };
    let open = |o: &Open| {
        let w = o.window_latencies();
        let mut fields = common(&o.windows);
        fields.push(("n".into(), floats(&mut w.iter().map(|&(n, _)| n as f64))));
        fields.push(("p50_ms".into(), floats(&mut w.iter().map(|&(_, p)| p))));
        Value::Object(fields)
    };
    let mut closed_fields = common(&closed.windows);
    closed_fields.push((
        "rate".into(),
        floats(&mut closed.window_rates().into_iter()),
    ));
    Value::Object(vec![
        ("closed".into(), Value::Object(closed_fields)),
        ("light".into(), open(light)),
        ("heavy".into(), open(heavy)),
    ])
}

/// Input length of a layer.
fn cols(layer: &Layer) -> usize {
    match &layer.source {
        Source::Float(m) | Source::Planned(m, _) => m.shape().num_cols(),
        Source::Dense(_, shape) => shape.num_cols(),
    }
}

fn end_to_end(
    values: &mut Values,
    closed: &Closed,
    light: &Open,
    heavy: &Open,
    slo_ms: f64,
) -> Result<(), String> {
    let (l, h) = (light.calm_latencies_ms(), heavy.calm_latencies_ms());
    if l.is_empty() || h.is_empty() {
        return Err("an open-loop phase answered no request in a calm window".into());
    }
    let (l, h) = (tail(&l), tail(&h));
    values.set("throughput_rps", closed.throughput());
    values.set(
        "closed_cpu_us_per_req",
        closed.cpu_s * 1e6 / closed.samples.len().max(1) as f64,
    );
    values.set("latency_p50_ms", l.p50);
    values.set("heavy_latency_p50_ms", h.p50);
    let (light_within, light_sent) = light.calm_within(slo_ms);
    let (heavy_within, heavy_sent) = heavy.calm_within(slo_ms);
    values.set(
        "slo_attainment",
        (light_within + heavy_within) as f64 / (light_sent + heavy_sent).max(1) as f64,
    );
    values.set("latency_tail_ms", l.value);
    values.set("heavy_latency_tail_ms", h.value);
    let lag: Vec<f64> = light.lag_us.iter().chain(&heavy.lag_us).copied().collect();
    values.set("bench.gen_lag_p99_us", percentile_of(&lag, 99.0));
    let phases = [&closed.windows, &light.windows, &heavy.windows];
    let steal: Vec<f64> = phases
        .iter()
        .flat_map(|w| w.steal.iter().copied())
        .collect();
    values.set(
        "bench.steal_share",
        steal.iter().sum::<f64>() / steal.len().max(1) as f64,
    );
    values.set(
        "bench.measured_s",
        phases.iter().map(|w| w.span()).sum::<f64>(),
    );
    Ok(())
}

fn log_phases(closed: &Closed, light: &Open, heavy: &Open, slo_ms: f64) {
    let pct = |w: &[f64]| -> Vec<String> { w.iter().map(|s| format!("{:.1}%", s * 1e2)).collect() };
    println!(
        "closed loop: {} completed in {:.2} s, {:.1} req/s over the {} calmest windows; per window {:?}, host steal {:?}",
        closed.samples.len(),
        closed.windows.span(),
        closed.throughput(),
        closed.windows.needed,
        closed.window_rates(),
        pct(&closed.windows.steal)
    );
    for (label, o) in [("light", light), ("heavy", heavy)] {
        let t = tail(&o.latencies_ms());
        let calm = tail(&o.calm_latencies_ms());
        let lag = tail(&o.lag_us);
        println!(
            "{label} open loop @{} req/s for {:.2} s: n={} p50 {:.3} ms, p{} {:.3} ms; calmest windows n={} p50 {:.3} ms, within {slo_ms} ms {:?}; generator lag p50 {:.1} us p{} {:.1} us; host steal {:?}",
            o.rate,
            o.windows.span(),
            t.count,
            t.p50,
            t.percentile.map_or_else(|| "-".into(), |p| p.to_string()),
            t.value,
            calm.count,
            calm.p50,
            o.calm_within(slo_ms),
            lag.p50,
            lag.percentile.map_or_else(|| "-".into(), |p| p.to_string()),
            lag.value,
            pct(&o.windows.steal)
        );
    }
}

/// Serve, engine, GEMM and model metrics from the traced closed loop and
/// the direct layer timings. Every workload mixes its layers uniformly,
/// so per-layer figures are plain means over the workload's layers.
fn per_layer(
    values: &mut Values,
    times: &[LayerTimes],
    traced: &Closed,
    before: &ServiceStats,
    after: &ServiceStats,
) {
    let s = &traced.samples;
    let pick =
        |f: &dyn Fn(&crate::drive::ClosedSample) -> f64| -> Vec<f64> { s.iter().map(f).collect() };
    let submit = pick(&|x| x.submit_us);
    values.set("serve.submit_p50_us", median(&submit));
    values.set("serve.submit_p99_us", percentile_of(&submit, 99.0));
    values.set(
        "serve.service_p50_ms",
        median(&pick(&|x| x.service_us)) / 1e3,
    );
    values.set("serve.delivery_p50_us", median(&pick(&|x| x.delivery_us)));
    values.set(
        "serve.overhead_p50_us",
        median(&pick(&|x| {
            x.service_us - times[x.layer].engine_us_at(x.batch)
        })),
    );
    // Each request's share of its batch's engine time, summed over the
    // window, per second of it. The engine times are single calls with the
    // whole kernel pool, so 1 means engine calls run back to back would
    // fill the window: the engine is what limits the closed loop. Well
    // below 1, serving overhead does.
    let engine_us: f64 = s
        .iter()
        .map(|x| times[x.layer].engine_us_at(x.batch) / x.batch.max(1) as f64)
        .sum();
    values.set("engine.load", engine_us / (traced.windows.span() * 1e6));

    let batches = (after.batches - before.batches).max(1) as f64;
    values.set(
        "serve.batch_mean",
        (after.batched_requests - before.batched_requests) as f64 / batches,
    );
    values.set(
        "serve.full_batch_share",
        (after.full_batches - before.full_batches) as f64 / batches,
    );
    values.set(
        "serve.deadline_batch_share",
        (after.deadline_batches - before.deadline_batches) as f64 / batches,
    );

    let n = times.len() as f64;
    let mean = |f: &dyn Fn(&LayerTimes) -> f64| times.iter().map(f).sum::<f64>() / n;
    let sum = |f: &dyn Fn(&LayerTimes) -> f64| times.iter().map(f).sum::<f64>();
    values.set("engine.b1_us", mean(&|t| t.engine_us[0]));
    values.set("engine.b16_us", mean(&|t| t.engine_us[2]));
    values.set(
        "engine.gflops_b16",
        sum(&|t| t.flops_b16) / sum(&|t| t.engine_us[2]) / 1e3,
    );
    values.set(
        "engine.non_gemm_b16_us",
        mean(&|t| t.engine_us[2] - t.gemm_b16_us),
    );
    values.set(
        "engine.bytes_moved_per_sample",
        mean(&|t| t.bytes_moved_per_sample),
    );
    values.set("gemm.b16_us", mean(&|t| t.gemm_b16_us));
    values.set(
        "gemm.gflops_b16",
        sum(&|t| t.flops_b16) / sum(&|t| t.gemm_b16_us) / 1e3,
    );
    values.set(
        "model.kcycles_per_sample_b16",
        mean(&|t| t.kcycles_per_sample_b16),
    );
    values.set(
        "model.us_per_kcycle",
        sum(&|t| t.engine_us[2] / 16.0) / sum(&|t| t.kcycles_per_sample_b16),
    );
}

/// Compiles the cold-deploy layers once, outside any set-up, so workloads
/// that compile nothing still report the compile layer.
fn compile_probe(seed: u64, smoke: bool) -> Result<(Vec<Call>, Vec<f64>), String> {
    let mut calls = Vec::new();
    let mut rel_errors = Vec::new();
    for (i, layer) in layers(Workload::ColdDeploy, seed, smoke)?
        .iter()
        .enumerate()
    {
        if let Source::Dense(w, shape) = &layer.source {
            rel_errors.push(compile_dense(i, &layer.name, w, shape, &mut calls)?.rel_error);
        }
    }
    Ok((calls, rel_errors))
}

fn setup_spans(tr: &Tracer, spans: &mut Vec<Span>, calls: &[Call], rep: usize) {
    let Some(setup) = calls.iter().find(|c| c.name == "setup") else {
        return;
    };
    let root = tr.id();
    spans.push(tr.span(
        root,
        NONE,
        NONE,
        "setup",
        NO_LAYER,
        rep,
        setup.start,
        setup.end,
    ));
    for c in calls.iter().filter(|c| c.name != "setup") {
        spans.push(tr.span(tr.id(), root, NONE, c.name, c.layer, rep, c.start, c.end));
    }
}

/// Serves [`PROBES`] fixed probes per layer and returns the largest
/// `‖y_served − y_ref‖ / ‖y_ref‖` over layers: `y_ref` is `W·x` for
/// compiled dense layers and the float engine of the served cores
/// otherwise (so it is exactly 0 on float workloads).
fn output_rel_err(
    client: &Client,
    layers: &[Layer],
    matrices: &[tie_tt::TtMatrix<f64>],
) -> Result<(f64, Tally), String> {
    let mut worst: f64 = 0.0;
    let mut tally = Tally::default();
    for (i, (layer, m)) in layers.iter().zip(matrices).enumerate() {
        let reference = CompactEngine::new(m.clone()).map_err(|e| e.to_string())?;
        let (rows, n) = (m.shape().num_rows(), m.shape().num_cols());
        for x in input_pool(n, PROBES, sub_seed(PROBE_SEED, i as u64)) {
            let y_ref = match &layer.source {
                Source::Dense(w, _) => w
                    .data()
                    .chunks_exact(n)
                    .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum())
                    .collect(),
                _ => {
                    let mut y = vec![0.0; rows];
                    reference
                        .matvec_into(&x, &mut y)
                        .map_err(|e| e.to_string())?;
                    y
                }
            };
            tally.attempted += 1;
            match client
                .submit(&layer.name, x)
                .and_then(tie_serve::Ticket::wait)
            {
                Ok(resp) => {
                    let num: f64 = resp
                        .output
                        .iter()
                        .zip(&y_ref)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    let den: f64 = y_ref.iter().map(|b| b * b).sum();
                    worst = worst.max((num / den.max(f64::MIN_POSITIVE)).sqrt());
                }
                Err(_) => tally.failed += 1,
            }
        }
    }
    Ok((worst, tally))
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn tally_json(t: &Tally) -> Value {
    Value::Object(vec![
        ("attempted".into(), Value::UInt(t.attempted)),
        ("refused".into(), Value::UInt(t.refused)),
        ("failed".into(), Value::UInt(t.failed)),
        ("wrong".into(), Value::UInt(t.wrong)),
    ])
}
