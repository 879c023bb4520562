//! `loadbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! [--smoke] [--runs <n>]`
//!
//! `--seconds` is how long the run measures; it defaults to `run_seconds`
//! of `BENCHMARK.json`. Prints a log, then as its last line the JSON result
//! `{"correct", "attempted", "failed", "metrics"}`. With `--runs N` it runs
//! every workload (or the one named) N times as separate processes,
//! alternating the workload order, and prints each metric's median and
//! quartiles next to its bound.

use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use tie_loadbench::metrics::{bounds, result_line, run_seconds, Decl, END_TO_END, PER_LAYER};
use tie_loadbench::stats::quartiles;
use tie_loadbench::{run, Options, Workload};

const USAGE: &str =
    "usage: loadbench --workload <table4-float|table4-tuned|tiny-layers|cold-deploy> \
--seed <u64> [--seconds <s>] [--trace 0|1] [--smoke] [--runs <n>]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: Option<usize>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        runs: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--runs" => {
                let n: usize = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if n < 2 {
                    return Err("--runs needs at least 2 runs for quartiles".into());
                }
                args.runs = Some(n);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write(name: &str, value: &Value) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(name);
    let text = serde_json::to_string(value).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn single(args: &Args, workload: Workload, seconds: f64) -> Result<ExitCode, String> {
    let opts = Options {
        workload,
        seed: args.seed,
        seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let outcome = run(&opts)?;
    let tag = format!(
        "{}-seed{}-trace{}{}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        if args.smoke { "-smoke" } else { "" }
    );
    write(&format!("{tag}.json"), &outcome.record)?;
    if let Some(spans) = &outcome.spans {
        write(&format!("spans-{tag}.json"), spans)?;
    }
    let decls: &[Decl] = if args.trace { PER_LAYER } else { END_TO_END };
    for d in decls {
        let v = outcome.values.get(d.name).unwrap_or(f64::NAN);
        println!("metric {} = {v} {}", d.name, d.unit);
    }
    let metrics = outcome.metrics(args.trace)?;
    println!(
        "{}",
        result_line(outcome.correct, outcome.attempted, outcome.failed, metrics)
    );
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("loadbench: served outputs differ from the expected outputs");
        ExitCode::FAILURE
    })
}

/// Runs each workload `runs` times as child processes and prints the
/// median and quartiles of every end-to-end metric.
fn repeat(args: &Args, runs: usize, seconds: f64) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let decls: &[Decl] = if args.trace { PER_LAYER } else { END_TO_END };
    let mut samples = vec![vec![Vec::new(); decls.len()]; workloads.len()];
    for r in 0..runs {
        let seed = args.seed + r as u64;
        let mut order: Vec<usize> = (0..workloads.len()).collect();
        if r % 2 == 1 {
            order.reverse();
        }
        for wi in order {
            let w = workloads[wi];
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let began = std::time::Instant::now();
            let out = cmd
                .output()
                .map_err(|e| format!("running {}: {e}", exe.display()))?;
            let wall = began.elapsed().as_secs_f64();
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let result = serde_json::from_str(last).map_err(|e| {
                format!(
                    "{} seed {seed}: no result line ({e}); exit {}",
                    w.name(),
                    out.status
                )
            })?;
            let metrics = result.get("metrics").ok_or("result without metrics")?;
            for (di, d) in decls.iter().enumerate() {
                let v = metrics
                    .get(d.name)
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or(format!("{} seed {seed}: {} missing", w.name(), d.name))?;
                samples[wi][di].push(v);
            }
            println!("run {r} {} seed {seed} ({wall:.1} s): {last}", w.name());
        }
    }
    let bounds = bounds()?;
    println!("workload metric median q1 q3 iqr/median bound verdict");
    for (wi, w) in workloads.iter().enumerate() {
        for (di, d) in decls.iter().enumerate() {
            let [q1, med, q3] = quartiles(&samples[wi][di]);
            let spread = (q3 - q1) / med.abs();
            let bound = bounds.iter().find(|(n, _)| n == d.name).map(|(_, b)| *b);
            let verdict = match bound {
                None => "-",
                Some(b) if spread <= b / 3.0 => "ok",
                Some(b) if spread <= b => "within bound, above a third",
                Some(_) => "WIDER THAN BOUND",
            };
            println!(
                "{} {} {med} {q1} {q3} {spread:.4} {} {verdict}",
                w.name(),
                d.name,
                bound.map_or_else(|| "-".into(), |b| b.to_string())
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = args
        .seconds
        .map_or_else(run_seconds, Ok)
        .and_then(|seconds| match (args.runs, args.workload) {
            (Some(runs), _) => repeat(&args, runs, seconds),
            (None, Some(w)) => single(&args, w, seconds),
            (None, None) => Err(format!("--workload is required\n{USAGE}")),
        });
    result.unwrap_or_else(|e| {
        eprintln!("loadbench: {e}");
        ExitCode::FAILURE
    })
}
