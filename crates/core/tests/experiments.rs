//! End-to-end experiments on small fat-trees: the three TE approaches of
//! the demo, exercised through the public `Experiment` API.

use horse_core::{Experiment, TeApproach};
use horse_sim::ClockMode;

const GBPS: f64 = 1e9;

#[test]
fn sdn_ecmp_demo_k4_routes_all_flows() {
    let report = Experiment::demo(4, TeApproach::SdnEcmp, 42)
        .horizon_secs(3.0)
        .run();
    assert_eq!(report.flows_requested, 16);
    assert_eq!(
        report.flows_routed, 16,
        "all flows placed by the controller"
    );
    assert!(report.all_routed_at.is_some());
    // Goodput: 16 hosts × ≤1 Gbps; collisions make it less than 16 but it
    // must be a substantial fraction.
    let final_bps = report.goodput_final_bps();
    assert!(
        final_bps > 8.0 * GBPS && final_bps <= 16.0 * GBPS + 1.0,
        "final goodput {final_bps}"
    );
    // Control plane spoke OpenFlow.
    assert!(report.control_msgs > 50, "msgs: {}", report.control_msgs);
    assert!(report.table_writes > 0);
    // The experiment entered FTI during rule installation and returned to
    // DES afterwards.
    assert!(report.fti_time.as_nanos() > 0);
    assert!(report.transition_count() >= 2, "{:?}", report.transitions);
    assert_eq!(
        report.transitions.last().map(|t| t.mode),
        Some(ClockMode::Des),
        "quiescent at the end"
    );
}

#[test]
fn bgp_ecmp_demo_k4_converges_and_routes() {
    let report = Experiment::demo(4, TeApproach::BgpEcmp, 42)
        .horizon_secs(5.0)
        .run();
    assert_eq!(report.flows_requested, 16);
    assert_eq!(
        report.flows_routed, 16,
        "all flows routed once BGP converged (routed={}, at={:?})",
        report.flows_routed, report.all_routed_at
    );
    let converged = report.all_routed_at.expect("convergence time recorded");
    assert!(
        converged.as_secs_f64() < 2.0,
        "BGP fat-tree convergence should be fast in virtual time: {converged}"
    );
    assert!(report.goodput_final_bps() > 8.0 * GBPS);
    assert!(
        report.control_msgs > 100,
        "BGP chatter: {}",
        report.control_msgs
    );
    assert!(
        report.table_writes > 20,
        "FIB installs: {}",
        report.table_writes
    );
    assert!(report.fti_time.as_nanos() > 0);
}

#[test]
fn hedera_demo_k4_runs_scheduling_rounds() {
    let report = Experiment::demo(4, TeApproach::Hedera, 42)
        .horizon_secs(12.0)
        .run();
    assert_eq!(report.flows_routed, 16);
    // Two polling rounds fit in 12 s (t=5, t=10): the 5-second polls keep
    // producing control traffic, so FTI recurs late in the run.
    let late_fti = report
        .transitions
        .iter()
        .any(|t| t.mode == ClockMode::Fti && t.at.as_secs_f64() > 4.5);
    assert!(
        late_fti,
        "Hedera polls must wake FTI: {:?}",
        report.transitions
    );
    assert!(report.goodput_final_bps() > 8.0 * GBPS);
}

#[test]
fn hedera_goodput_not_worse_than_plain_ecmp() {
    // Same seed → same permutation and same initial hash placement; Hedera
    // then re-places elephants. Greedy global-first-fit with estimated
    // demands can lose on an individual permutation, so the claim that
    // holds is the averaged one: across seeds, Hedera's steady-state
    // goodput must be at least ECMP's.
    let mut hedera_total = 0.0;
    let mut ecmp_total = 0.0;
    for seed in [1, 2, 3, 4, 5] {
        ecmp_total += Experiment::demo(4, TeApproach::SdnEcmp, seed)
            .horizon_secs(11.0)
            .run()
            .goodput_final_bps();
        hedera_total += Experiment::demo(4, TeApproach::Hedera, seed)
            .horizon_secs(11.0)
            .run()
            .goodput_final_bps();
    }
    assert!(
        hedera_total >= ecmp_total - 1.0,
        "hedera {hedera_total} < ecmp {ecmp_total}"
    );
}

#[test]
fn reports_are_deterministic_in_virtual_pacing() {
    let a = Experiment::demo(4, TeApproach::SdnEcmp, 9)
        .horizon_secs(2.0)
        .run();
    let b = Experiment::demo(4, TeApproach::SdnEcmp, 9)
        .horizon_secs(2.0)
        .run();
    assert_eq!(a.goodput.get("aggregate"), b.goodput.get("aggregate"));
    assert_eq!(a.transitions, b.transitions);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.control_msgs, b.control_msgs);
}

#[test]
fn different_seeds_differ() {
    let a = Experiment::demo(4, TeApproach::SdnEcmp, 1)
        .horizon_secs(2.0)
        .run();
    let b = Experiment::demo(4, TeApproach::SdnEcmp, 2)
        .horizon_secs(2.0)
        .run();
    // Different permutations → almost surely different goodput traces.
    assert_ne!(a.goodput.get("aggregate"), b.goodput.get("aggregate"));
}

#[test]
fn fti_des_split_reflects_workload() {
    // SDN ECMP: control activity only at the start → mostly DES.
    let report = Experiment::demo(4, TeApproach::SdnEcmp, 5)
        .horizon_secs(10.0)
        .run();
    assert!(
        report.fti_fraction() < 0.5,
        "ECMP should be mostly DES, got {:.2}",
        report.fti_fraction()
    );
}

#[test]
fn bgp_memory_counters_read_the_run_pools() {
    use horse_topo::fattree::{FatTree, SwitchRole};
    use std::collections::BTreeSet;

    // A BGP fat-tree's configured networks are its edges' host subnets.
    let ft = FatTree::build(4, SwitchRole::BgpRouter, 1e9, 1_000);
    let networks: BTreeSet<_> = ft.host_subnets.values().collect();
    let run = |threads: usize| {
        Experiment::demo(4, TeApproach::BgpEcmp, 42)
            .horizon_secs(3.0)
            .run_threads(threads)
            .run()
    };
    let counters = |r: &horse_core::ExperimentReport| {
        (
            r.mem_prefix_ids,
            r.mem_peer_ids,
            r.mem_attr_entries,
            r.rib_attr_store_peak,
        )
    };
    let serial = run(1);
    assert_eq!(
        serial.mem_prefix_ids,
        networks.len() as u64,
        "the run's prefix pool holds each configured network once"
    );
    assert!(serial.mem_attr_entries > 0);
    assert_eq!(
        serial.rib_attr_store_peak, serial.mem_attr_entries,
        "the attribute pool is counted once, not per speaker"
    );
    assert_eq!(counters(&serial), counters(&run(2)));
}
