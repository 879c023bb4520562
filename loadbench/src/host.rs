//! The host record every run prints and stores with its result, and the
//! host's steal time during the load.

use serde_json::Value;
use std::time::{Duration, Instant};
use tie_serve::ServeConfig;

/// What the run's numbers depend on besides the code.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Widest GEMM SIMD tier on this CPU: `avx512f`, `avx2` or `portable`.
    pub gemm_isa: &'static str,
    /// The raw `TIE_THREADS` variable, if set.
    pub tie_threads_env: Option<String>,
    /// Kernel pool width in effect.
    pub tie_threads: usize,
    /// Serve worker threads the workloads deploy with.
    pub serve_workers: usize,
    /// Compiler that built this binary.
    pub rustc: &'static str,
    /// Commit of the source tree, when it is a git checkout.
    pub git_head: String,
}

impl Host {
    /// Probes the current process and machine.
    #[must_use]
    pub fn detect() -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            gemm_isa: gemm_isa(),
            tie_threads_env: std::env::var("TIE_THREADS").ok(),
            tie_threads: tie_tensor::parallel::num_threads(),
            serve_workers: ServeConfig::default().resolved_workers(),
            rustc: env!("LOADBENCH_RUSTC_VERSION"),
            git_head: git_head(),
        }
    }

    /// The record as JSON.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("nproc".into(), Value::UInt(self.nproc as u64)),
            ("gemm_isa".into(), Value::String(self.gemm_isa.into())),
            (
                "tie_threads_env".into(),
                self.tie_threads_env
                    .clone()
                    .map_or(Value::Null, Value::String),
            ),
            ("tie_threads".into(), Value::UInt(self.tie_threads as u64)),
            (
                "serve_workers".into(),
                Value::UInt(self.serve_workers as u64),
            ),
            ("rustc".into(), Value::String(self.rustc.into())),
            ("git_head".into(), Value::String(self.git_head.clone())),
        ])
    }

    /// One line for the log.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "host: nproc={} gemm_isa={} TIE_THREADS={} (resolved {}) serve_workers={} rustc=\"{}\" git={}",
            self.nproc,
            self.gemm_isa,
            self.tie_threads_env.as_deref().unwrap_or("unset"),
            self.tie_threads,
            self.serve_workers,
            self.rustc,
            self.git_head
        )
    }
}

/// The widest SIMD tier `tie_tensor::tile` dispatches GEMMs to here.
fn gemm_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

/// Reads `HEAD` of the tree the benchmark was built from without running
/// git; a source tree that is not a checkout reports `unknown`.
fn git_head() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .or_else(|| packed_ref(&git, reference))
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string()),
    }
}

fn packed_ref(git: &std::path::Path, reference: &str) -> Option<String> {
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// CPU time this process has used so far, user plus system, in seconds
/// (`/proc/self/stat`, in 10 ms ticks); `None` where it is unavailable.
#[must_use]
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat.rsplit_once(") ")?.1.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// A snapshot of the machine-wide CPU time counters of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the counters; `None` where `/proc/stat` is unavailable.
    fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal [guest guest_nice],
        // where guest time is already counted in user and nice.
        Some(CpuTicks {
            steal: *fields.get(7)?,
            total: fields.iter().take(8).sum(),
        })
    }
}

/// Measures, in consecutive windows of `width` from `start`, the share of
/// the machine's CPU time the hypervisor gave to other guests (the `steal`
/// column of `/proc/stat`): time the run could not use, whatever the
/// program does. Stops after the first window at whose end `done` holds
/// for the shares so far, and returns them. A window reads 0 where
/// `/proc/stat` is unavailable.
pub fn steal_windows(
    start: Instant,
    width: Duration,
    mut done: impl FnMut(&[f64]) -> bool,
) -> Vec<f64> {
    let mut last = CpuTicks::now();
    let mut shares = Vec::new();
    for k in 1u32.. {
        let end = start + width * k;
        if let Some(wait) = end.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let now = CpuTicks::now();
        shares.push(match (last, now) {
            (Some(a), Some(b)) => {
                let total = b.total.saturating_sub(a.total).max(1);
                b.steal.saturating_sub(a.steal) as f64 / total as f64
            }
            _ => 0.0,
        });
        last = now;
        if done(&shares) {
            break;
        }
    }
    shares
}
