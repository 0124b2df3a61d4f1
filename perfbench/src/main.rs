//! The Horse benchmark.
//!
//! ```text
//! horse-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload (see [`workloads`]) through the public
//! `Experiment` / `SweepPlan` API, repeating it for at least `--seconds`
//! wall seconds (and at least [`MIN_REPS`] times), checks every
//! repetition's outputs, and prints as its last stdout line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. The seed
//! decides every generated input; the program only sees those inputs.
//!
//! * `--trace 0` reports the end-to-end metrics, tracing off, each the
//!   median over the repetitions: `setup_s`, `run_s`, `peak_rss_mib`.
//!   The two times are wall seconds scaled to the host speed at which
//!   the [reference kernel](mod@reference) takes [`reference::NOMINAL_S`]; the
//!   unscaled medians and the kernel's measured time are in the
//!   metadata line. The failure fraction is `failed / attempted`; a
//!   failure is a panic, a failed sweep run, or a failed correctness
//!   check.
//! * `--trace 1` reports the per-layer metrics of [`layers`]: report
//!   counters, counts of `horse-trace` events, and benchmark-side spans
//!   around the layers' public functions, driven by the workload's own
//!   inputs. A layer that does no work on the workload reports 0 and is
//!   listed as not applicable. The spans are written to `.bench_out/`
//!   when the run ends.
//!
//! The line before the result is a `{"meta": …}` object recording the
//! commit, cores, sweep workers, run threads, seed, compiler, whether
//! the peak-RSS reset worked, the unit of every metric, and every
//! failure. The process exits 0 only when every check passed.

mod layers;
mod metrics;
mod reference;
mod spans;
mod stats;
mod workloads;

use horse_stats::json_string;
use reference::Calibration;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{fresh_dir, run_rep, SweepMode, Workload};

/// Fewest repetitions per run, however short `--seconds` is.
pub const MIN_REPS: usize = 3;
/// The seed the benchmark's recorded numbers use.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed, never used while tuning, for re-checking a claim.
pub const HELD_OUT_SEED: u64 = 20_190_819;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What one run found: metric values, checks, and recording metadata.
struct Outcome {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failures: Vec<String>,
    reps: usize,
    rss_reset: bool,
    fingerprint: u64,
    not_applicable: Vec<&'static str>,
    /// Further numbers for the metadata line (quartiles, unscaled
    /// times, the reference kernel's time).
    meta_numbers: Vec<(&'static str, f64)>,
}

/// Numbers kept from one repetition once its reports are dropped.
struct RepSummary {
    setup_s: f64,
    run_s: f64,
    /// The part of `run_s` spent waiting for the wall clock under
    /// real-time pacing, which host speed does not change.
    paced_s: f64,
    peak_rss_mib: f64,
    rss_reset: bool,
    fingerprint: u64,
    attempted: u64,
    failures: Vec<String>,
}

/// Runs repetitions for at least `budget` (and [`MIN_REPS`] times) and
/// keeps each one's numbers, timing the reference kernel after each.
/// Repetitions must agree on the outcome fingerprint; a repetition that
/// does not is a failure.
fn repeat(
    w: Workload,
    seed: u64,
    budget: Duration,
    min_reps: usize,
    work: &Path,
) -> (Vec<RepSummary>, Calibration) {
    let start = Instant::now();
    let mut calibration = Calibration::start();
    let mut reps: Vec<RepSummary> = Vec::new();
    while reps.len() < min_reps || start.elapsed() < budget {
        let dir = fresh_dir(work, &format!("rep{}", reps.len()));
        let rep = run_rep(w, seed, None, SweepMode::Resumable, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        calibration.sample();
        let mut failures = rep.failures;
        if let Some(first) = reps.first() {
            if rep.fingerprint != first.fingerprint {
                failures.push(format!(
                    "repetition {} fingerprint {:016x} != {:016x}",
                    reps.len(),
                    rep.fingerprint,
                    first.fingerprint
                ));
            }
        }
        let per_exp: Vec<String> = rep
            .runs
            .iter()
            .map(|r| format!("{} {:.3}", r.report.label, r.outside_s))
            .collect();
        eprintln!(
            "[{}] rep {}: wall setup {:.4} s, wall run {:.4} s, peak {:.1} MiB, \
             fingerprint {:016x}{} [{}]",
            w.name(),
            reps.len(),
            rep.setup_s,
            rep.run_s,
            rep.peak_rss_mib,
            rep.fingerprint,
            if failures.is_empty() { "" } else { " FAILED" },
            per_exp.join(", ")
        );
        reps.push(RepSummary {
            setup_s: rep.setup_s,
            run_s: rep.run_s,
            paced_s: rep.paced_s,
            peak_rss_mib: rep.peak_rss_mib,
            rss_reset: rep.rss_reset,
            fingerprint: rep.fingerprint,
            attempted: rep.attempted,
            failures,
        });
    }
    (reps, calibration)
}

fn end_to_end(w: Workload, seed: u64, seconds: f64, work: &Path) -> Outcome {
    let (reps, calibration) = repeat(w, seed, Duration::from_secs_f64(seconds), MIN_REPS, work);
    let col = |f: &dyn Fn(&RepSummary) -> f64| -> f64 {
        stats::median(&reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    // Host speed scales computing, not waiting for the wall clock.
    let scale = calibration.scale();
    let scaled_run = |r: &RepSummary| r.paced_s + (r.run_s - r.paced_s) * scale;
    let mut values = BTreeMap::new();
    values.insert("setup_s", col(&|r| r.setup_s) * scale);
    values.insert("run_s", col(&scaled_run));
    values.insert("peak_rss_mib", col(&|r| r.peak_rss_mib));
    let mut meta_numbers = vec![
        ("wall_setup_s", col(&|r| r.setup_s)),
        ("wall_run_s", col(&|r| r.run_s)),
        ("reference_s", calibration.median_s()),
        ("reference_nominal_s", reference::NOMINAL_S),
    ];
    if let Some((q1, q3)) = stats::quartiles(&reps.iter().map(scaled_run).collect::<Vec<_>>()) {
        meta_numbers.extend([("run_s_q1", q1), ("run_s_q3", q3)]);
    }
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    let mut attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let fingerprint = reps.first().map_or(0, |r| r.fingerprint);
    if w == Workload::ZooSweep {
        // Worker-count independence: the same plan at one worker must
        // give the same semantic digest as the two-worker repetitions.
        attempted += 1;
        let dir = fresh_dir(work, "serial");
        match workloads::zoo_serial_digest(seed, &dir) {
            Ok(d) if d == fingerprint => {}
            Ok(d) => failures.push(format!(
                "zoo digest at 1 worker {d:016x} != {fingerprint:016x} at {} workers",
                workloads::ZOO_WORKERS
            )),
            Err(e) => failures.push(e),
        }
    }
    Outcome {
        values,
        attempted,
        failures,
        reps: reps.len(),
        rss_reset: reps.iter().all(|r| r.rss_reset),
        fingerprint,
        not_applicable: Vec::new(),
        meta_numbers,
    }
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key)
        .ok()
        .filter(|s| !s.trim().is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn meta_line(args: &Args, out: &Outcome, set: &[metrics::Metric]) -> String {
    let w = args.workload;
    let (sweep_workers, run_threads) = w.threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\"meta\": {");
    let _ = write!(
        s,
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"reps\": {}, \
         \"commit\": {}, \"rustc\": {}, \"cores\": {cores}, \"sweep_workers\": {sweep_workers}, \
         \"run_threads\": {run_threads}, \"rss_reset\": {}, \"fingerprint\": \"{:016x}\", \
         \"default_seed\": {DEFAULT_SEED}, \"held_out_seed\": {HELD_OUT_SEED}, \"units\": {{",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.reps,
        json_string(&env_or_unknown("PERFBENCH_COMMIT")),
        json_string(&env_or_unknown("PERFBENCH_RUSTC")),
        out.rss_reset,
        out.fingerprint,
    );
    for (i, m) in set.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": \"{}\"",
            if i > 0 { ", " } else { "" },
            m.name,
            m.unit
        );
    }
    s.push('}');
    for (name, v) in &out.meta_numbers {
        let _ = write!(s, ", \"{name}\": {v}");
    }
    s.push_str(", \"not_applicable\": [");
    for (i, n) in out.not_applicable.iter().enumerate() {
        let _ = write!(s, "{}\"{n}\"", if i > 0 { ", " } else { "" });
    }
    s.push_str("], \"failures\": [");
    for (i, f) in out.failures.iter().enumerate() {
        let _ = write!(s, "{}{}", if i > 0 { ", " } else { "" }, json_string(f));
    }
    s.push_str("]}}");
    s
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: horse-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    let work: PathBuf =
        root.join(".bench_work")
            .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let (out, set) = if args.trace {
        let (out, spans_json) = layers::traced(args.workload, args.seed, args.seconds, &work);
        let spans_dir = root.join(".bench_out");
        let _ = std::fs::create_dir_all(&spans_dir);
        let spans_path = spans_dir.join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = std::fs::write(&spans_path, spans_json) {
            eprintln!("warning: could not write {}: {e}", spans_path.display());
        }
        (out, metrics::PER_LAYER)
    } else {
        (
            end_to_end(args.workload, args.seed, args.seconds, &work),
            metrics::END_TO_END,
        )
    };
    let _ = std::fs::remove_dir_all(&work);
    // Removes the parent too when no other run is using it.
    let _ = std::fs::remove_dir(root.join(".bench_work"));
    let failed = (out.failures.len() as u64).min(out.attempted);
    println!("{}", meta_line(&args, &out, set));
    println!(
        "{}",
        metrics::result_line(failed == 0, out.attempted, failed, set, |name| out
            .values
            .get(name)
            .copied())
    );
    if failed > 0 {
        for f in &out.failures {
            eprintln!("check failed: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "zoo_sweep",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::ZooSweep);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "fig3", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "fig3", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "fig3", "--seed"]).is_err());
    }
}
