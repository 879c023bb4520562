//! Every workload, untraced and traced, on one second of load: each emits
//! every declared metric and serves every request correctly.
//!
//! The open-loop rates are fixed for optimized builds; an unoptimized
//! build serves too slowly to answer anything within a fraction of a
//! second, so these run with `cargo test --release` only.

use tie_loadbench::metrics::{result_line, END_TO_END, PER_LAYER};
use tie_loadbench::{run, Options, Workload};

fn smoke(workload: Workload) {
    for trace in [false, true] {
        let opts = Options {
            workload,
            seed: 11,
            seconds: 1.0,
            trace,
            smoke: true,
        };
        let out = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(out.correct, "{} served a wrong output", workload.name());
        assert_eq!(
            out.values.get("error_rate"),
            Some(0.0),
            "{}",
            workload.name()
        );
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        for d in if trace { PER_LAYER } else { END_TO_END } {
            let v = out.values.get(d.name);
            assert!(
                v.is_some_and(f64::is_finite),
                "{} trace={trace}: {} = {v:?}",
                workload.name(),
                d.name
            );
        }
        let metrics = out.metrics(trace).expect("every declared metric measured");
        let line = result_line(out.correct, out.attempted, out.failed, metrics);
        let parsed = serde_json::from_str(&line).expect("result line is JSON");
        assert!(parsed.get("metrics").is_some());
        if trace {
            assert!(out.spans.is_some(), "a traced run keeps its spans");
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs an optimized build")]
fn table4_float() {
    smoke(Workload::Table4Float);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs an optimized build")]
fn table4_tuned() {
    smoke(Workload::Table4Tuned);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs an optimized build")]
fn tiny_layers() {
    smoke(Workload::TinyLayers);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs an optimized build")]
fn cold_deploy() {
    smoke(Workload::ColdDeploy);
}
