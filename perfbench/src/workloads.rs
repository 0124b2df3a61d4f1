//! The benchmark's named workloads: their inputs (generated from the
//! seed), how one repetition runs through the public `Experiment` /
//! `SweepPlan` API, and the correctness checks every repetition must
//! pass.
//!
//! Every workload is a closed batch: each experiment starts after the
//! previous one finished, from this one process.

use horse_core::report::{peak_rss_bytes, reset_peak_rss};
use horse_core::{
    ControlBuild, Experiment, ExperimentReport, PoissonWorkload, RunConfig, SizeDist, TeApproach,
};
use horse_net::addr::Ipv4Prefix;
use horse_net::topology::{LinkId, NodeId, Topology};
use horse_sim::{Pacing, SimDuration, SimTime};
use horse_sweep::{
    fnv1a64, CheckpointedSweep, RunOutcome, SweepOutcome, SweepPlan, TopoCache, TopologySpec,
    ALL_SCENARIOS,
};
use horse_topo::fattree::{FatTree, SwitchRole};
use horse_topo::synth::{bgp_setups_with_networks, wan_timers};
use horse_topo::ZooCorpus;
use horse_trace::{TraceLog, TraceOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// `fig3`: pods of the fat-tree.
pub const FIG3_K: usize = 12;
/// `fig3`: experiment horizon (virtual seconds).
pub const FIG3_HORIZON_S: f64 = 60.0;
/// `sdn_churn`: pods of the fat-tree.
pub const CHURN_K: usize = 8;
/// `sdn_churn`: Poisson arrival rate per host (flows per virtual second).
pub const CHURN_LAMBDA: f64 = 2.0;
/// `sdn_churn`: arrivals stop at this virtual time.
pub const CHURN_ARRIVALS_S: u64 = 20;
/// `sdn_churn`: experiment horizon, long enough for every transfer to end.
pub const CHURN_HORIZON_S: f64 = 40.0;
/// `wan_table`: approximate router count of the PoP WAN.
pub const WAN_ROUTERS: usize = 100;
/// `wan_table`: synthetic /24s originated at the leaf routers.
pub const WAN_PREFIXES: usize = 10_000;
/// `wan_table`: experiment horizon.
pub const WAN_HORIZON_S: f64 = 30.0;
/// `wan_table`: intra-run pump workers.
pub const WAN_RUN_THREADS: usize = 2;
/// `wan_table`: (down, up) virtual times of the two link flaps, after
/// the initial table has converged.
pub const WAN_FLAPS_S: [(u64, u64); 2] = [(10, 12), (16, 18)];
/// `zoo_sweep`: per-run horizon.
pub const ZOO_HORIZON_S: f64 = 30.0;
/// `zoo_sweep`: sweep workers.
pub const ZOO_WORKERS: usize = 2;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 3 demo in virtual pacing.
    Fig3,
    /// The same three experiments under 1:1 real-time pacing.
    Fig3Rt,
    /// Reactive SDN ECMP under Poisson flow churn.
    SdnChurn,
    /// A PoP WAN converging a large synthetic table, with link flaps.
    WanTable,
    /// The Topology Zoo corpus times three policy scenarios.
    ZooSweep,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Fig3,
        Workload::Fig3Rt,
        Workload::SdnChurn,
        Workload::WanTable,
        Workload::ZooSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3 => "fig3",
            Workload::Fig3Rt => "fig3_rt",
            Workload::SdnChurn => "sdn_churn",
            Workload::WanTable => "wan_table",
            Workload::ZooSweep => "zoo_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Per-component trace ring capacity for the traced run, sized so
    /// that no event is dropped (each ring preallocates its capacity).
    pub fn trace_capacity(self) -> usize {
        match self {
            Workload::Fig3 | Workload::Fig3Rt => 1 << 15,
            Workload::SdnChurn => 1 << 17,
            Workload::WanTable => 1 << 13,
            Workload::ZooSweep => 1 << 16,
        }
    }

    /// Sweep workers and intra-run pump workers, for the recording.
    pub fn threads(self) -> (usize, usize) {
        match self {
            Workload::WanTable => (1, WAN_RUN_THREADS),
            Workload::ZooSweep => (ZOO_WORKERS, 1),
            _ => (1, 1),
        }
    }
}

/// Fisher–Yates shuffle: the benchmark's own seeded choices (prefix
/// placement, flapped links).
fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// What an experiment's report must satisfy besides routing every flow.
#[derive(Debug, Clone, Copy, Default)]
pub struct Expect {
    /// Minimum FIB writes (full propagation of a synthetic table).
    pub min_table_writes: u64,
    /// Every flow is bounded and must complete before the horizon.
    pub all_complete: bool,
}

/// One experiment to run plus what its report must satisfy.
pub struct Job {
    pub exp: Experiment,
    pub expect: Expect,
}

/// A workload's inputs for one repetition, built before anything runs.
pub enum Prepared {
    Jobs(Vec<Job>),
    Sweep { plan: SweepPlan, runs: usize },
}

/// The three demo experiments on freshly built fat-trees.
fn fig3_jobs(seed: u64, pacing: Pacing) -> Vec<Job> {
    let routers = FatTree::build(FIG3_K, SwitchRole::BgpRouter, 1e9, 1_000);
    let switches = FatTree::build(FIG3_K, SwitchRole::OpenFlow, 1e9, 1_000);
    [TeApproach::BgpEcmp, TeApproach::Hedera, TeApproach::SdnEcmp]
        .into_iter()
        .map(|te| {
            let ft = if te == TeApproach::BgpEcmp {
                &routers
            } else {
                &switches
            };
            Job {
                exp: Experiment::demo_on(ft, te, seed)
                    .horizon_secs(FIG3_HORIZON_S)
                    .pacing(pacing)
                    .run_threads(1),
                expect: Expect::default(),
            }
        })
        .collect()
}

fn churn_job(seed: u64) -> Job {
    let ft = FatTree::build(CHURN_K, SwitchRole::OpenFlow, 1e9, 1_000);
    let workload = PoissonWorkload {
        lambda_per_host: CHURN_LAMBDA,
        sizes: SizeDist::BoundedPareto {
            min_bytes: 1e5,
            max_bytes: 2e9,
            alpha: 1.05,
        },
        until: SimTime::from_secs(CHURN_ARRIVALS_S),
        seed,
    };
    let mut exp = Experiment::new(Arc::clone(&ft.topo))
        .horizon_secs(CHURN_HORIZON_S)
        .label(format!("sdn-churn-k{CHURN_K}"));
    exp.traffic = workload.generate(&ft.topo, &ft.hosts);
    exp.control = ControlBuild::SdnEcmp;
    exp.seed = seed;
    Job {
        exp,
        expect: Expect {
            min_table_writes: 0,
            all_complete: true,
        },
    }
}

/// The PoP WAN's core-to-core links (ring and chords). Leaves are
/// single-homed, so a link between two multi-homed routers is a core link.
fn core_links(topo: &Topology) -> Vec<LinkId> {
    let multi_homed = |n: NodeId| topo.neighbors(n).len() > 1;
    (0..topo.link_count() as u32)
        .map(LinkId)
        .filter(|&l| multi_homed(topo.link(l).a.node) && multi_homed(topo.link(l).b.node))
        .collect()
}

fn wan_job(seed: u64) -> Job {
    let bt = TopologySpec::PopWan {
        routers: WAN_ROUTERS,
        prefixes: WAN_PREFIXES,
    }
    .build(SwitchRole::BgpRouter);
    let mut rng = StdRng::seed_from_u64(seed);
    // Same table, same per-leaf share; the seed decides which leaf
    // originates which prefixes.
    let mut prefixes: Vec<Ipv4Prefix> = bt.originations.values().flatten().copied().collect();
    shuffle(&mut rng, &mut prefixes);
    let mut rest = prefixes.as_slice();
    let originations: BTreeMap<NodeId, Vec<Ipv4Prefix>> = bt
        .originations
        .iter()
        .map(|(node, own)| {
            let (mine, tail) = rest.split_at(own.len());
            rest = tail;
            (*node, mine.to_vec())
        })
        .collect();
    let mut exp = Experiment::new(Arc::clone(&bt.topo))
        .horizon_secs(WAN_HORIZON_S)
        .sample_every(SimDuration::from_secs(10))
        .run_threads(WAN_RUN_THREADS)
        .label(format!("wan-table-{}", bt.spec.tag()));
    exp.control = ControlBuild::Bgp(bgp_setups_with_networks(
        &bt.topo,
        wan_timers(),
        &originations,
    ));
    exp.seed = seed;
    let mut candidates = core_links(&bt.topo);
    shuffle(&mut rng, &mut candidates);
    for (&(down, up), &link) in WAN_FLAPS_S.iter().zip(&candidates) {
        exp = exp
            .link_down(SimTime::from_secs(down), link)
            .link_up(SimTime::from_secs(up), link);
    }
    let nodes = bt.topo.node_count() as u64;
    Job {
        exp,
        expect: Expect {
            min_table_writes: (nodes - 1) * prefixes.len() as u64,
            all_complete: false,
        },
    }
}

/// The zoo sweep plan: every vendored graph times every policy scenario.
pub fn zoo_plan(seed: u64) -> SweepPlan {
    let corpus = ZooCorpus::vendored();
    SweepPlan::new(seed)
        .topologies(
            corpus
                .names()
                .iter()
                .map(|n| TopologySpec::Zoo { name: n.clone() }),
        )
        .policies(ALL_SCENARIOS.to_vec())
        .approaches([TeApproach::BgpEcmp])
        .horizon_secs(ZOO_HORIZON_S)
}

/// Builds (and drops) every topology the workload runs on.
pub fn build_topologies(w: Workload) {
    match w {
        Workload::Fig3 | Workload::Fig3Rt => {
            black_box(FatTree::build(FIG3_K, SwitchRole::BgpRouter, 1e9, 1_000));
            black_box(FatTree::build(FIG3_K, SwitchRole::OpenFlow, 1e9, 1_000));
        }
        Workload::SdnChurn => {
            black_box(FatTree::build(CHURN_K, SwitchRole::OpenFlow, 1e9, 1_000));
        }
        Workload::WanTable => {
            black_box(
                TopologySpec::PopWan {
                    routers: WAN_ROUTERS,
                    prefixes: WAN_PREFIXES,
                }
                .build(SwitchRole::BgpRouter),
            );
        }
        Workload::ZooSweep => {
            for name in ZooCorpus::vendored().names() {
                black_box(TopologySpec::Zoo { name: name.clone() }.build(SwitchRole::BgpRouter));
            }
        }
    }
}

/// Builds one repetition's inputs. This is the benchmark-side part of
/// `setup_s`: topology or corpus build plus experiment or plan
/// construction.
pub fn prepare(w: Workload, seed: u64) -> Prepared {
    match w {
        Workload::Fig3 => Prepared::Jobs(fig3_jobs(seed, Pacing::Virtual)),
        Workload::Fig3Rt => Prepared::Jobs(fig3_jobs(seed, Pacing::real_time())),
        Workload::SdnChurn => Prepared::Jobs(vec![churn_job(seed)]),
        Workload::WanTable => Prepared::Jobs(vec![wan_job(seed)]),
        Workload::ZooSweep => {
            // Load every graph of the corpus once, as a user validating
            // the corpus before a campaign does; the sweep's own cache
            // then builds the shapes it runs.
            build_topologies(w);
            let plan = zoo_plan(seed);
            let runs = plan.expand().len();
            Prepared::Sweep { plan, runs }
        }
    }
}

/// The experiment descriptions of a workload, built but not run (the
/// inputs the per-layer replays are driven by).
pub fn experiments(w: Workload, seed: u64) -> Vec<Experiment> {
    match prepare(w, seed) {
        Prepared::Jobs(jobs) => jobs.into_iter().map(|j| j.exp).collect(),
        Prepared::Sweep { plan, .. } => {
            let cache = TopoCache::new();
            plan.expand()
                .iter()
                .map(|spec| plan.build_experiment(spec, &cache))
                .collect()
        }
    }
}

/// One experiment's report, timed from outside `run()`.
pub struct ExpRun {
    pub report: ExperimentReport,
    pub trace: Option<TraceLog>,
    pub outside_s: f64,
}

/// How the sweep of a repetition is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// `execute_resumable` into a fresh checkpoint directory.
    Resumable,
    /// `execute`, keeping every report and trace in memory.
    InMemory,
}

/// The result of a checkpointed sweep repetition.
pub struct SweepRep {
    pub sweep: CheckpointedSweep,
    pub plan: SweepPlan,
    pub cfg: RunConfig,
}

/// Times each repetition builds its inputs; `setup_s` takes the median.
pub const SETUP_SAMPLES: usize = 5;

/// One repetition of a workload.
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    /// Virtual FTI seconds the pacer held to the wall clock (real-time
    /// pacing only).
    pub paced_s: f64,
    pub peak_rss_mib: f64,
    pub rss_reset: bool,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub fingerprint: u64,
    pub runs: Vec<ExpRun>,
    pub in_memory: Option<SweepOutcome>,
    pub checkpointed: Option<SweepRep>,
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The outcome fingerprint of one experiment: its semantic report plus
/// the deterministic counts.
fn report_fingerprint(r: &ExperimentReport) -> String {
    format!(
        "{}|msgs={}|writes={}|completions={}",
        r.semantic_json(),
        r.control_msgs,
        r.table_writes,
        r.completions.len()
    )
}

fn check_report(job: Expect, r: &ExperimentReport) -> Result<(), String> {
    if r.flows_routed != r.flows_requested {
        return Err(format!(
            "{}: {} of {} flows routed",
            r.label, r.flows_routed, r.flows_requested
        ));
    }
    if job.all_complete && r.completions.len() != r.flows_requested {
        return Err(format!(
            "{}: {} of {} bounded flows completed",
            r.label,
            r.completions.len(),
            r.flows_requested
        ));
    }
    if r.table_writes < job.min_table_writes {
        return Err(format!(
            "{}: {} FIB writes < {} for full propagation",
            r.label, r.table_writes, job.min_table_writes
        ));
    }
    Ok(())
}

/// A sweep configuration for `workers` workers checkpointing into `dir`.
pub fn sweep_config(workers: usize, dir: &Path) -> RunConfig {
    RunConfig {
        threads: Some(workers),
        checkpoint_dir: Some(dir.to_path_buf()),
        results_dir: dir.to_path_buf(),
        ..RunConfig::default()
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands memory freed by earlier repetitions back to the kernel, so the
/// peak-RSS reset that follows starts each repetition from about the
/// footprint of a fresh process rather than from what the allocator
/// kept.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's `malloc_trim` takes a byte count, touches only the
    // allocator's own free lists, and is safe to call at any time from
    // any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Runs one repetition: prepare (timed as set-up), execute every
/// experiment serially (timed from outside), check the outputs.
/// `trace` enables tracing; `ckpt_dir` is a fresh, empty directory for
/// a resumable sweep.
pub fn run_rep(
    w: Workload,
    seed: u64,
    trace: Option<TraceOptions>,
    mode: SweepMode,
    ckpt_dir: &Path,
) -> Rep {
    release_free_memory();
    let rss_reset = reset_peak_rss();
    // Set-up is milliseconds; time it several times and keep the median
    // (and the last inputs built) so one scheduling hiccup does not move
    // the repetition's `setup_s`.
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    let mut prepared = None;
    for _ in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        let p = prepare(w, seed);
        samples.push(t0.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up sample");
    let bench_setup_s = crate::stats::median(&samples).expect("set-up samples");
    let mut rep = Rep {
        setup_s: bench_setup_s,
        run_s: 0.0,
        paced_s: 0.0,
        peak_rss_mib: 0.0,
        rss_reset,
        attempted: 0,
        failures: Vec::new(),
        fingerprint: 0,
        runs: Vec::new(),
        in_memory: None,
        checkpointed: None,
    };
    let mut digest_input = String::new();
    match prepared {
        Prepared::Jobs(jobs) => {
            for Job { exp, expect } in jobs {
                let exp = match trace {
                    Some(opts) => exp.trace(opts),
                    None => exp,
                };
                rep.attempted += 1;
                let t = Instant::now();
                let out = catch_unwind(AssertUnwindSafe(move || exp.run_traced()));
                let outside_s = t.elapsed().as_secs_f64();
                match out {
                    Ok((report, trace)) => {
                        rep.setup_s += report.wall_setup_secs;
                        rep.run_s += outside_s - report.wall_setup_secs;
                        if w == Workload::Fig3Rt {
                            rep.paced_s += report.fti_time.as_secs_f64();
                        }
                        if let Err(e) = check_report(expect, &report) {
                            rep.failures.push(e);
                        }
                        digest_input.push_str(&report_fingerprint(&report));
                        rep.runs.push(ExpRun {
                            report,
                            trace,
                            outside_s,
                        });
                    }
                    Err(p) => {
                        rep.run_s += outside_s;
                        rep.failures.push(format!("panic: {}", panic_message(p)));
                    }
                }
            }
        }
        Prepared::Sweep { plan, runs } => {
            rep.attempted = runs as u64;
            let t = Instant::now();
            match mode {
                SweepMode::InMemory => {
                    let plan = match trace {
                        Some(opts) => plan.trace(opts),
                        None => plan,
                    };
                    let out = catch_unwind(AssertUnwindSafe(|| plan.execute(ZOO_WORKERS)));
                    rep.run_s = t.elapsed().as_secs_f64();
                    match out {
                        Ok(outcome) => {
                            digest_input = outcome.semantic_json();
                            if outcome.runs.len() != runs {
                                rep.failures
                                    .push(format!("{} of {runs} runs", outcome.runs.len()));
                            }
                            rep.in_memory = Some(outcome);
                        }
                        Err(p) => rep
                            .failures
                            .push(format!("sweep panic: {}", panic_message(p))),
                    }
                }
                SweepMode::Resumable => {
                    let cfg = sweep_config(ZOO_WORKERS, ckpt_dir);
                    let out = plan.execute_resumable(&cfg);
                    rep.run_s = t.elapsed().as_secs_f64();
                    match out {
                        Ok(sweep) => {
                            for r in &sweep.runs {
                                if let RunOutcome::Failed { message } = &r.outcome {
                                    rep.failures.push(format!("{}: {message}", r.label));
                                }
                            }
                            if !sweep.is_complete() || sweep.runs.len() != runs {
                                rep.failures
                                    .push(format!("{} of {runs} runs completed", sweep.runs.len()));
                            } else {
                                digest_input = sweep.semantic_json();
                            }
                            rep.checkpointed = Some(SweepRep { sweep, plan, cfg });
                        }
                        Err(e) => rep.failures.push(format!("checkpointed sweep: {e}")),
                    }
                }
            }
        }
    }
    rep.fingerprint = fnv1a64(digest_input.as_bytes());
    rep.peak_rss_mib = peak_rss_bytes() as f64 / (1024.0 * 1024.0);
    rep
}

/// The zoo sweep's semantic digest at one worker, compared against the
/// two-worker repetitions (worker-count independence).
pub fn zoo_serial_digest(seed: u64, dir: &Path) -> Result<u64, String> {
    let cfg = sweep_config(1, dir);
    let sweep = zoo_plan(seed)
        .execute_resumable(&cfg)
        .map_err(|e| format!("serial sweep: {e}"))?;
    if !sweep.is_complete() {
        return Err("serial sweep incomplete".to_string());
    }
    Ok(fnv1a64(sweep.semantic_json().as_bytes()))
}

/// A fresh, empty directory under `root` for one repetition.
pub fn fresh_dir(root: &Path, tag: &str) -> PathBuf {
    let dir = root.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create benchmark work directory");
    dir
}
