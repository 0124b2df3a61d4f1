//! The tracing layer's golden-trace contract:
//!
//! 1. Same seed ⇒ byte-identical semantic trace exports (virtual-time
//!    fields only — `include_wall = false`) across repeated runs.
//! 2. The same holds across sweep worker counts: per-run traces are keyed
//!    by run index, so a 2-worker sweep exports the same bytes as serial.
//! 3. Null-sink invariance: enabling tracing must not change what the
//!    experiment computes — the semantic report is byte-identical to an
//!    untraced run's.
//! 4. Attribution acceptance: the traced demo attributes ≥95% of the
//!    report's FTI time to named control-plane conversations, and the
//!    Chrome export parses with a non-empty `traceEvents` array.

use horse::stats::Json;
use horse::trace::{attribute_fti, convergence_timeline};
use horse::{Experiment, TeApproach, TraceOptions};

fn traced_demo(te: TeApproach, seed: u64) -> (horse::ExperimentReport, horse::TraceLog) {
    let (report, trace) = Experiment::demo(4, te, seed)
        .horizon_secs(3.0)
        .trace(TraceOptions::enabled())
        .run_traced();
    (report, trace.expect("tracing was enabled"))
}

#[test]
fn same_seed_gives_byte_identical_trace_exports() {
    let (_, a) = traced_demo(TeApproach::SdnEcmp, 42);
    let (_, b) = traced_demo(TeApproach::SdnEcmp, 42);
    assert!(!a.is_empty());
    assert_eq!(a.to_json(false), b.to_json(false));
    assert_eq!(a.chrome_json(false), b.chrome_json(false));
    // A different seed routes different flows: the traces must differ.
    let (_, c) = traced_demo(TeApproach::SdnEcmp, 43);
    assert_ne!(a.to_json(false), c.to_json(false));
}

#[test]
fn sweep_traces_are_identical_across_worker_counts() {
    use horse::sweep::SweepPlan;
    let plan = SweepPlan::new(42)
        .topologies([4])
        .approaches([TeApproach::SdnEcmp, TeApproach::BgpEcmp])
        .horizon_secs(2.0)
        .trace(TraceOptions::enabled());
    let serial = plan.execute(1);
    let parallel = plan.execute(2);
    assert_eq!(serial.runs.len(), parallel.runs.len());
    for (s, p) in serial.runs.iter().zip(&parallel.runs) {
        let st = s.trace.as_ref().expect("serial run traced");
        let pt = p.trace.as_ref().expect("parallel run traced");
        assert!(!st.is_empty(), "{}", s.spec.label());
        assert_eq!(
            st.to_json(false),
            pt.to_json(false),
            "trace diverged across worker counts for {}",
            s.spec.label()
        );
        assert_eq!(st.chrome_json(false), pt.chrome_json(false));
    }
}

#[test]
fn traces_are_byte_identical_at_any_run_thread_count() {
    // The parallel drain records speaker events on worker threads, but
    // every ring is per-speaker and merged in node order — so the export
    // must not move a single byte when the drain shards.
    let run = |threads: usize| {
        let (report, trace) = Experiment::demo(4, TeApproach::BgpEcmp, 42)
            .horizon_secs(3.0)
            .trace(TraceOptions::enabled())
            .run_threads(threads)
            .run_traced();
        (report, trace.expect("tracing was enabled"))
    };
    let (serial_report, serial_trace) = run(1);
    for threads in [2, 4] {
        let (report, trace) = run(threads);
        assert_eq!(
            serial_report.semantic_json(),
            report.semantic_json(),
            "report diverged at run_threads={threads}"
        );
        assert_eq!(
            serial_trace.to_json(false),
            trace.to_json(false),
            "trace diverged at run_threads={threads}"
        );
        assert_eq!(serial_trace.chrome_json(false), trace.chrome_json(false));
        assert!(
            report.pump_parallel_rounds > 0,
            "traced demo must shard rounds at run_threads={threads}"
        );
    }
}

#[test]
fn sweep_traces_survive_nested_run_parallelism() {
    // 2 sweep workers × 4 drain workers: nested scoped pools, same bytes.
    use horse::sweep::SweepPlan;
    let plan = |run_threads: usize| {
        SweepPlan::new(42)
            .topologies([4])
            .approaches([TeApproach::BgpEcmp])
            .replicates(2)
            .horizon_secs(2.0)
            .trace(TraceOptions::enabled())
            .run_threads(run_threads)
    };
    let serial = plan(1).execute(1);
    let nested = plan(4).execute(2);
    assert_eq!(serial.runs.len(), nested.runs.len());
    for (s, p) in serial.runs.iter().zip(&nested.runs) {
        assert_eq!(
            s.trace.as_ref().expect("serial run traced").to_json(false),
            p.trace.as_ref().expect("nested run traced").to_json(false),
            "trace diverged under nested pools for {}",
            s.spec.label()
        );
    }
}

#[test]
fn tracing_does_not_change_semantics() {
    for te in [TeApproach::SdnEcmp, TeApproach::BgpEcmp, TeApproach::Hedera] {
        let untraced = Experiment::demo(4, te, 42).horizon_secs(3.0).run();
        let (traced, _) = traced_demo(te, 42);
        assert_eq!(
            untraced.semantic_json(),
            traced.semantic_json(),
            "tracing changed the {} run's semantics",
            te.label()
        );
    }
}

#[test]
fn demo_attributes_fti_time_and_chrome_export_parses() {
    let (report, log) = traced_demo(TeApproach::SdnEcmp, 42);
    assert_eq!(report.trace.events, log.len() as u64);

    let attr = attribute_fti(&log);
    let fti_ns = report.fti_time.as_nanos();
    assert!(fti_ns > 0, "demo never entered FTI?");
    assert!(
        attr.attributed.as_nanos() as f64 >= 0.95 * fti_ns as f64,
        "only {} of {} ns FTI attributed",
        attr.attributed.as_nanos(),
        fti_ns
    );
    assert!(!attr.by_conversation.is_empty());
    assert_eq!(report.trace.fti_attributed_ns, attr.attributed.as_nanos());

    let chrome = Json::parse(&log.chrome_json(true)).expect("chrome export parses");
    let events = chrome
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
}

#[test]
fn bgp_speakers_get_convergence_timelines() {
    let (_, log) = traced_demo(TeApproach::BgpEcmp, 42);
    let timelines = convergence_timeline(&log);
    assert!(!timelines.is_empty(), "no BGP speaker produced events");
    assert!(
        timelines.iter().any(|t| !t.established.is_empty()),
        "no session reached Established"
    );
    assert!(
        timelines.iter().any(|t| t.updates_tx + t.updates_rx > 0),
        "no speaker exchanged UPDATEs"
    );
    for t in &timelines {
        assert!(t.last_activity.is_some());
    }
}
