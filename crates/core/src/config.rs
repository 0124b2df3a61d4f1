//! Typed run configuration — the single parse point for every `HORSE_*`
//! environment variable.
//!
//! Historically each bench bin and the sweep pool read its own env var
//! inline (`HORSE_THREADS` in the pool, `HORSE_RESULTS_DIR` in the bench
//! lib, the `*_MIN_SPEEDUP` gates in individual bins). [`RunConfig`]
//! replaces that sprawl: [`RunConfig::from_env`] parses everything once,
//! and callers thread the struct (or read a field) instead of touching
//! `std::env` themselves. The env vars still work — they are honored in
//! exactly one place.
//!
//! | Variable | Field | Meaning |
//! |---|---|---|
//! | `HORSE_THREADS` | [`RunConfig::threads`] | Sweep worker count (1 = serial path) |
//! | `HORSE_RUN_THREADS` | [`RunConfig::run_threads`] | Intra-run pump worker count (default 1 = serial pump) |
//! | `HORSE_RUN_MIN_SPEEDUP` | [`RunConfig::run_min_speedup`] | `table_scale` intra-run parallel wall-ratio gate (multi-core only) |
//! | `HORSE_RESULTS_DIR` | [`RunConfig::results_dir`] | Bench output directory |
//! | `HORSE_RIB_MIN_SPEEDUP` | [`RunConfig::rib_min_speedup`] | `rib_churn` wall-ratio gate |
//! | `HORSE_SWEEP_MIN_SPEEDUP` | [`RunConfig::sweep_min_speedup`] | `sweep_scaling` gate |
//! | `HORSE_FLOW_MIN_SPEEDUP` | [`RunConfig::flow_min_speedup`] | `flow_scale` wall-ratio gate (multi-core only) |
//! | `HORSE_TRACE_MAX_OVERHEAD` | [`RunConfig::trace_max_overhead`] | Tracing overhead gate (`rib_churn`) |
//! | `HORSE_TRACE` | [`RunConfig::trace`]`.enabled` | Enable structured tracing |
//! | `HORSE_TRACE_CAPACITY` | [`RunConfig::trace`]`.capacity` | Per-component ring capacity |
//! | `HORSE_CHECKPOINT_DIR` | [`RunConfig::checkpoint_dir`] | Sweep checkpoint directory (unset = results dir) |
//! | `HORSE_SWEEP_MAX_RUNS` | [`RunConfig::sweep_max_runs`] | Cap runs per invocation (resume smoke / staged campaigns) |
//! | `HORSE_RETRY_FAILED` | [`RunConfig::retry_failed`] | Re-run checkpointed `failed` records (`1`/`true`) |

use horse_trace::TraceOptions;
use std::path::PathBuf;

/// Typed configuration for experiment execution, replacing scattered
/// `HORSE_*` env reads. Construct with [`RunConfig::from_env`] (the env
/// vars keep working) or build a value directly in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Sweep worker count; `None` means "use available parallelism".
    /// `Some(1)` forces the pool's inline serial path.
    pub threads: Option<usize>,
    /// Intra-run pump worker count; `None` means 1 (serial pump). Unlike
    /// sweep [`RunConfig::threads`], parallelism inside a single run is
    /// opt-in: the default must not oversubscribe cores when runs already
    /// execute in parallel under a sweep, and the serial pump is the
    /// baseline every parallel result is byte-compared against.
    pub run_threads: Option<usize>,
    /// Minimum intra-run parallel wall speedup `table_scale` must
    /// demonstrate (parallel pump vs `run_threads = 1`), if gating.
    /// Benches enforce it only when the machine actually has more than
    /// one core — the honest-`cores` discipline.
    pub run_min_speedup: Option<f64>,
    /// Where bench harnesses drop machine-readable outputs.
    pub results_dir: PathBuf,
    /// Minimum wall speedup `rib_churn` must demonstrate, if gating.
    pub rib_min_speedup: Option<f64>,
    /// Minimum parallel speedup `sweep_scaling` must demonstrate.
    pub sweep_min_speedup: Option<f64>,
    /// Minimum wall speedup `flow_scale` must demonstrate (arena flow
    /// plane vs the map-keyed oracle shape), if gating. Like the other
    /// wall gates, enforced only when the machine has more than one core.
    pub flow_min_speedup: Option<f64>,
    /// Maximum fractional wall overhead the tracing layer may add
    /// (e.g. `0.15` = 15%), enforced by the `rib_churn` smoke, which times
    /// the live convergence replay traced vs untraced. That replay records
    /// ~one event per microsecond of work — a deliberate stress case, so
    /// the bound is a backstop against record-path regressions rather than
    /// a statement about normal runs (a real experiment records a few
    /// hundred events over seconds, where the same per-event cost is
    /// unmeasurable). Bounding the *enabled* cost bounds the disabled
    /// (null-sink) path a fortiori.
    pub trace_max_overhead: Option<f64>,
    /// Structured-tracing options for traced runs.
    pub trace: TraceOptions,
    /// Directory for sweep checkpoint files (`sweep-<plan_hash>.jsonl`);
    /// `None` means "use [`RunConfig::results_dir`]". Checkpointing
    /// itself is chosen by the caller (`execute_checkpointed` vs
    /// `execute`), not by this knob.
    pub checkpoint_dir: Option<PathBuf>,
    /// Execute at most this many sweep runs per invocation, leaving the
    /// rest pending in the checkpoint — the in-process stand-in for
    /// "killed partway" (CI resume smoke) and a lever for staging very
    /// long campaigns.
    pub sweep_max_runs: Option<usize>,
    /// Re-execute checkpointed runs whose record says `failed` instead
    /// of carrying the failure into the merged report.
    pub retry_failed: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: None,
            run_threads: None,
            run_min_speedup: None,
            results_dir: PathBuf::from("bench_results"),
            rib_min_speedup: None,
            sweep_min_speedup: None,
            flow_min_speedup: None,
            trace_max_overhead: None,
            trace: TraceOptions::default(),
            checkpoint_dir: None,
            sweep_max_runs: None,
            retry_failed: false,
        }
    }
}

impl RunConfig {
    /// Parses the process environment. This is the only place in the
    /// workspace that reads `HORSE_*` variables.
    pub fn from_env() -> RunConfig {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// Parses from an arbitrary key→value lookup (tests pass closures so
    /// they never touch the process-global environment).
    ///
    /// Panics on unparsable values — a typo'd override silently falling
    /// back to a default is worse than a crash.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> RunConfig {
        let threads = get("HORSE_THREADS").map(|s| match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("HORSE_THREADS must be a positive integer, got {s:?}"),
        });
        let run_threads = get("HORSE_RUN_THREADS").map(|s| match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("HORSE_RUN_THREADS must be a positive integer, got {s:?}"),
        });
        let results_dir = get("HORSE_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("bench_results"));
        let float = |key: &str| {
            get(key).map(|s| {
                s.trim()
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("{key} must be a number, got {s:?}"))
            })
        };
        let flag = |key: &str| match get(key).as_deref().map(str::trim) {
            None | Some("0") | Some("false") | Some("") => false,
            Some("1") | Some("true") => true,
            Some(other) => panic!("{key} must be 0/1/true/false, got {other:?}"),
        };
        let trace_enabled = flag("HORSE_TRACE");
        let mut trace = if trace_enabled {
            TraceOptions::enabled()
        } else {
            TraceOptions::default()
        };
        if let Some(s) = get("HORSE_TRACE_CAPACITY") {
            match s.trim().parse::<usize>() {
                Ok(n) if n >= 1 => trace.capacity = n,
                _ => panic!("HORSE_TRACE_CAPACITY must be a positive integer, got {s:?}"),
            }
        }
        let sweep_max_runs = get("HORSE_SWEEP_MAX_RUNS").map(|s| match s.trim().parse::<usize>() {
            Ok(n) => n,
            Err(_) => panic!("HORSE_SWEEP_MAX_RUNS must be a non-negative integer, got {s:?}"),
        });
        RunConfig {
            threads,
            run_threads,
            run_min_speedup: float("HORSE_RUN_MIN_SPEEDUP"),
            results_dir,
            rib_min_speedup: float("HORSE_RIB_MIN_SPEEDUP"),
            sweep_min_speedup: float("HORSE_SWEEP_MIN_SPEEDUP"),
            flow_min_speedup: float("HORSE_FLOW_MIN_SPEEDUP"),
            trace_max_overhead: float("HORSE_TRACE_MAX_OVERHEAD"),
            trace,
            checkpoint_dir: get("HORSE_CHECKPOINT_DIR").map(PathBuf::from),
            sweep_max_runs,
            retry_failed: flag("HORSE_RETRY_FAILED"),
        }
    }

    /// The worker count to actually use: the configured override, else
    /// the machine's available parallelism (1 when unknown).
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// The intra-run pump worker count: the configured override, else 1
    /// (serial pump — see [`RunConfig::run_threads`] for why the default
    /// differs from sweep [`RunConfig::threads`]).
    pub fn run_threads(&self) -> usize {
        self.run_threads.unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            pairs
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn empty_env_gives_defaults() {
        let cfg = RunConfig::from_lookup(|_| None);
        assert_eq!(cfg, RunConfig::default());
        assert!(cfg.threads() >= 1);
        assert!(!cfg.trace.enabled);
    }

    #[test]
    fn all_keys_parse() {
        let cfg = RunConfig::from_lookup(lookup(&[
            ("HORSE_THREADS", "4"),
            ("HORSE_RUN_THREADS", "2"),
            ("HORSE_RUN_MIN_SPEEDUP", "3"),
            ("HORSE_RESULTS_DIR", "/tmp/out"),
            ("HORSE_RIB_MIN_SPEEDUP", "1.5"),
            ("HORSE_SWEEP_MIN_SPEEDUP", "3"),
            ("HORSE_FLOW_MIN_SPEEDUP", "1.2"),
            ("HORSE_TRACE_MAX_OVERHEAD", "0.02"),
            ("HORSE_TRACE", "1"),
            ("HORSE_TRACE_CAPACITY", "1024"),
            ("HORSE_CHECKPOINT_DIR", "/tmp/ckpt"),
            ("HORSE_SWEEP_MAX_RUNS", "12"),
            ("HORSE_RETRY_FAILED", "true"),
        ]));
        assert_eq!(cfg.threads, Some(4));
        assert_eq!(cfg.threads(), 4);
        assert_eq!(cfg.run_threads, Some(2));
        assert_eq!(cfg.run_threads(), 2);
        assert_eq!(cfg.run_min_speedup, Some(3.0));
        assert_eq!(cfg.results_dir, PathBuf::from("/tmp/out"));
        assert_eq!(cfg.rib_min_speedup, Some(1.5));
        assert_eq!(cfg.sweep_min_speedup, Some(3.0));
        assert_eq!(cfg.flow_min_speedup, Some(1.2));
        assert_eq!(cfg.trace_max_overhead, Some(0.02));
        assert!(cfg.trace.enabled);
        assert_eq!(cfg.trace.capacity, 1024);
        assert_eq!(cfg.checkpoint_dir, Some(PathBuf::from("/tmp/ckpt")));
        assert_eq!(cfg.sweep_max_runs, Some(12));
        assert!(cfg.retry_failed);
    }

    #[test]
    fn checkpoint_knobs_default_off() {
        let cfg = RunConfig::from_lookup(|_| None);
        assert_eq!(cfg.checkpoint_dir, None);
        assert_eq!(cfg.sweep_max_runs, None);
        assert!(!cfg.retry_failed);
    }

    #[test]
    #[should_panic(expected = "HORSE_SWEEP_MAX_RUNS must be a non-negative integer")]
    fn bad_max_runs_panics() {
        let _ = RunConfig::from_lookup(lookup(&[("HORSE_SWEEP_MAX_RUNS", "few")]));
    }

    #[test]
    #[should_panic(expected = "HORSE_RETRY_FAILED must be 0/1/true/false")]
    fn bad_retry_flag_panics() {
        let _ = RunConfig::from_lookup(lookup(&[("HORSE_RETRY_FAILED", "maybe")]));
    }

    #[test]
    fn trace_capacity_applies_without_enabling() {
        let cfg = RunConfig::from_lookup(lookup(&[("HORSE_TRACE_CAPACITY", "64")]));
        assert!(!cfg.trace.enabled);
        assert_eq!(cfg.trace.capacity, 64);
    }

    #[test]
    fn run_threads_defaults_to_serial_pump() {
        let cfg = RunConfig::from_lookup(|_| None);
        assert_eq!(cfg.run_threads, None);
        assert_eq!(cfg.run_threads(), 1, "intra-run parallelism is opt-in");
        assert_eq!(cfg.run_min_speedup, None);
    }

    #[test]
    #[should_panic(expected = "HORSE_THREADS must be a positive integer")]
    fn bad_threads_panics() {
        let _ = RunConfig::from_lookup(lookup(&[("HORSE_THREADS", "zero")]));
    }

    #[test]
    #[should_panic(expected = "HORSE_RUN_THREADS must be a positive integer")]
    fn bad_run_threads_panics() {
        let _ = RunConfig::from_lookup(lookup(&[("HORSE_RUN_THREADS", "many")]));
    }

    #[test]
    #[should_panic(expected = "HORSE_RUN_THREADS must be a positive integer")]
    fn zero_run_threads_panics() {
        let _ = RunConfig::from_lookup(lookup(&[("HORSE_RUN_THREADS", "0")]));
    }

    #[test]
    #[should_panic(expected = "HORSE_RUN_MIN_SPEEDUP must be a number")]
    fn bad_run_gate_panics() {
        let _ = RunConfig::from_lookup(lookup(&[("HORSE_RUN_MIN_SPEEDUP", "plenty")]));
    }

    #[test]
    #[should_panic(expected = "HORSE_THREADS must be a positive integer")]
    fn zero_threads_panics() {
        let _ = RunConfig::from_lookup(lookup(&[("HORSE_THREADS", "0")]));
    }

    #[test]
    #[should_panic(expected = "HORSE_RIB_MIN_SPEEDUP must be a number")]
    fn bad_gate_panics() {
        let _ = RunConfig::from_lookup(lookup(&[("HORSE_RIB_MIN_SPEEDUP", "fast")]));
    }

    #[test]
    fn flow_gate_defaults_off() {
        let cfg = RunConfig::from_lookup(|_| None);
        assert_eq!(cfg.flow_min_speedup, None);
    }

    #[test]
    #[should_panic(expected = "HORSE_FLOW_MIN_SPEEDUP must be a number")]
    fn bad_flow_gate_panics() {
        let _ = RunConfig::from_lookup(lookup(&[("HORSE_FLOW_MIN_SPEEDUP", "warp")]));
    }
}
