//! The sweep engine's determinism contract: a mixed plan — BGP, SDN-ECMP
//! and Hedera control planes, with and without a link failure — must
//! produce byte-identical semantic reports at 1, 2, and N workers.
//!
//! Semantic reports (`ExperimentReport::semantic_json`) zero the wall
//! times and pump cost counters, which legitimately vary run to run;
//! everything else — goodput series, control-message counts, FTI/DES
//! occupancy, routed flows — must not depend on the schedule.

use horse::sim::SimTime;
use horse::sweep::{CheckpointOptions, FailureScenario, PolicyScenario, SweepPlan, TopologySpec};
use horse::TeApproach;

fn plan() -> SweepPlan {
    SweepPlan::new(42)
        .topologies([4])
        .approaches([TeApproach::BgpEcmp, TeApproach::SdnEcmp, TeApproach::Hedera])
        .failures([
            FailureScenario::None,
            FailureScenario::CoreUplinkDown {
                at: SimTime::from_secs(2),
                restore: None,
            },
        ])
        .horizon_secs(4.0)
}

#[test]
fn mixed_plan_is_identical_across_worker_counts() {
    let plan = plan();
    let serial = plan.execute(1);
    assert_eq!(serial.stats.threads, 1);
    assert_eq!(serial.runs.len(), 6, "3 approaches x 2 failure scenarios");
    // The serial run must do real work on every scenario.
    for run in &serial.runs {
        assert!(run.report.flows_routed > 0, "{}", run.spec.label());
        assert!(run.report.control_msgs > 0, "{}", run.spec.label());
    }
    let baseline = serial.semantic_json();

    for threads in [2, 4] {
        let out = plan.execute(threads);
        assert_eq!(out.stats.threads, threads);
        assert_eq!(
            out.stats.workers.iter().map(|w| w.runs).sum::<u64>(),
            6,
            "threads={threads}: every run accounted to a worker"
        );
        assert_eq!(
            baseline,
            out.semantic_json(),
            "semantic reports diverged at {threads} workers"
        );
    }
}

/// Kill/resume extension of the determinism contract: a sweep capped
/// after 2 of 4 runs (the in-process stand-in for a SIGKILL — records
/// are flushed per run, so the on-disk state is the same), then resumed
/// under a *different* worker count, must merge a report byte-identical
/// to both an uninterrupted checkpointed sweep and the plain
/// `execute()` path.
#[test]
fn killed_and_resumed_sweep_matches_uninterrupted_report() {
    let plan = SweepPlan::new(42)
        .topologies([4])
        .approaches([TeApproach::BgpEcmp, TeApproach::SdnEcmp])
        .failures([
            FailureScenario::None,
            FailureScenario::CoreUplinkDown {
                at: SimTime::from_secs(1),
                restore: None,
            },
        ])
        .horizon_secs(2.0);
    let baseline = plan.execute(1).semantic_json();

    for threads in [1, 2] {
        let dir =
            std::env::temp_dir().join(format!("horse-resume-{}-t{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = CheckpointOptions::new(&dir);

        // Phase 1: die after two runs. The checkpoint file now holds
        // exactly the records a SIGKILL'd sweep would have flushed.
        let partial = plan
            .execute_checkpointed(threads, &opts.clone().max_runs(Some(2)))
            .expect("capped sweep");
        assert!(!partial.is_complete());
        assert_eq!(partial.executed, 2);
        assert_eq!(partial.pending, vec![2, 3]);

        // Phase 2: restart. Only the remainder executes; the merged
        // report must be indistinguishable from never having died —
        // even though the resume may use a different worker count.
        let resumed = plan
            .execute_checkpointed(threads % 2 + 1, &opts)
            .expect("resumed sweep");
        assert!(resumed.is_complete());
        assert_eq!(resumed.restored, 2, "completed runs must not re-execute");
        assert_eq!(resumed.executed, 2);
        assert_eq!(
            resumed.semantic_json(),
            baseline,
            "threads={threads}: resumed report diverged from uninterrupted run"
        );

        // And a clean checkpointed sweep agrees too.
        let clean_dir = dir.join("clean");
        let clean = plan
            .execute_checkpointed(threads, &CheckpointOptions::new(&clean_dir))
            .expect("clean sweep");
        assert_eq!(clean.restored, 0);
        assert_eq!(clean.semantic_json(), baseline);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The determinism contract extends to the topology and policy axes: a
/// plan mixing a fat-tree with two Topology Zoo WANs, under baseline and
/// Gao–Rexford policies and a topology-generic percentile failure, is
/// byte-identical at 1, 2, and 4 workers — and a killed-then-resumed
/// sweep of the same plan merges to the same bytes.
#[test]
fn mixed_zoo_and_fattree_plan_is_identical_across_worker_counts() {
    let plan = SweepPlan::new(42)
        .topologies([
            TopologySpec::FatTree { k: 4 },
            TopologySpec::Zoo {
                name: "Abilene".to_string(),
            },
            TopologySpec::Zoo {
                name: "AttMpls".to_string(),
            },
        ])
        .policies([PolicyScenario::Baseline, PolicyScenario::GaoRexford])
        .approaches([TeApproach::BgpEcmp])
        .failures([
            FailureScenario::None,
            FailureScenario::LinkPercentile {
                pct: 50,
                at: SimTime::from_secs(1),
                restore: None,
            },
        ])
        .horizon_secs(2.0);
    let serial = plan.execute(1);
    assert_eq!(
        serial.runs.len(),
        12,
        "3 topologies x 2 policies x 2 failures"
    );
    for run in &serial.runs {
        assert!(run.report.control_msgs > 0, "{}", run.spec.label());
        assert!(run.report.table_writes > 0, "{}", run.spec.label());
    }
    let baseline = serial.semantic_json();

    for threads in [2, 4] {
        assert_eq!(
            baseline,
            plan.execute(threads).semantic_json(),
            "semantic reports diverged at {threads} workers"
        );
    }

    // Kill after 5 runs, resume under a different worker count.
    let dir = std::env::temp_dir().join(format!("horse-zoo-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CheckpointOptions::new(&dir);
    let partial = plan
        .execute_checkpointed(2, &opts.clone().max_runs(Some(5)))
        .expect("capped sweep");
    assert!(!partial.is_complete());
    let resumed = plan.execute_checkpointed(4, &opts).expect("resumed sweep");
    assert!(resumed.is_complete());
    assert_eq!(resumed.restored, 5);
    assert_eq!(resumed.semantic_json(), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An explicit baseline-only policy axis is the no-op it claims to be:
/// same labels, same plan hash (so checkpoints interoperate), and
/// byte-identical semantic reports versus a plan that never mentions
/// policies — on both fat-tree and zoo topologies.
#[test]
fn empty_policy_axis_is_byte_identical_to_no_policy_axis() {
    let base = || {
        SweepPlan::new(42)
            .topologies([
                TopologySpec::FatTree { k: 4 },
                TopologySpec::Zoo {
                    name: "Abilene".to_string(),
                },
            ])
            .approaches([TeApproach::BgpEcmp])
            .horizon_secs(2.0)
    };
    let implicit = base();
    let explicit = base().policies([PolicyScenario::Baseline]);
    assert_eq!(implicit.plan_hash(), explicit.plan_hash());

    let a = implicit.execute(2);
    let b = explicit.execute(2);
    assert_eq!(
        a.runs.iter().map(|r| r.spec.label()).collect::<Vec<_>>(),
        b.runs.iter().map(|r| r.spec.label()).collect::<Vec<_>>(),
    );
    assert_eq!(a.semantic_json(), b.semantic_json());
}

#[test]
fn replicates_get_distinct_seeds_and_results_stay_ordered() {
    let plan = SweepPlan::new(7)
        .topologies([4])
        .approaches([TeApproach::SdnEcmp])
        .replicates(3)
        .horizon_secs(2.0);
    let out = plan.execute(2);
    assert_eq!(out.runs.len(), 3);
    let seeds: std::collections::BTreeSet<u64> = out.runs.iter().map(|r| r.spec.seed).collect();
    assert_eq!(seeds.len(), 3, "replicates must draw distinct seeds");
    for (i, run) in out.runs.iter().enumerate() {
        assert_eq!(run.spec.index, i, "results must come back in plan order");
        assert_eq!(run.spec.replicate, i);
    }
    // Different seeds hash flows onto different ECMP paths; the reports
    // should not all be clones of one another.
    let distinct: std::collections::BTreeSet<String> =
        out.runs.iter().map(|r| r.report.semantic_json()).collect();
    assert!(
        distinct.len() > 1,
        "replicates look identical — seeds unused?"
    );
}
