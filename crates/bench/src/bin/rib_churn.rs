//! **RIB cost**: indexed/memoized vs naive decision process on a BGP
//! fat-tree convergence + link-flap workload.
//!
//! A k-pod fat-tree runs real [`BgpSpeaker`]s (every switch a router,
//! eBGP everywhere, MRAI zero) through full convergence and then eight
//! agg–core session flaps, with messages shuttled over an in-memory FIFO.
//! The harness taps the wire: every decoded inbound UPDATE and every
//! session transition becomes a trace event. The identical trace is then
//! replayed through both RIB implementations with their respective read
//! patterns:
//!
//! * **new** — the indexed [`LocRib`]: inverted candidate index, interned
//!   attributes, memoized decisions read once per affected prefix, and the
//!   speaker's `(peer, AttrId)` export cache;
//! * **old** — [`NaiveRib`], the pre-index model: per-peer probe loop on
//!   every decide, double decide in reconcile, a fresh export clone per
//!   (prefix, peer), and `prefixes()` union rebuilds on session-up.
//!
//! Cost is compared two ways:
//!
//! * **decision work** — `decide calls + candidates touched`, the RIBs'
//!   own machine-independent counters ([`RibStats::decision_work`] vs
//!   [`NaiveStats::decision_work`]);
//! * **wall time** — elapsed seconds for each replay (both replays run
//!   the same trace through the same loop; only the RIB differs).
//!
//! A final phase measures the structured-tracing layer's cost: the live
//! convergence replay runs in interleaved back-to-back pairs with
//! per-speaker ring sinks enabled vs the default null tracer, and the
//! overhead is the median of the per-pair wall ratios (robust against
//! scheduler bursts on a ~10 ms replay). This is a deliberate stress case —
//! the replay records roughly one event per microsecond of work, ~1000x
//! the event rate of a normal traced experiment — so the fractional
//! overhead here vastly overstates an experiment's; the printed ns/event
//! is the workload-independent figure. `HORSE_TRACE_MAX_OVERHEAD` (via
//! [`RunConfig`]) gates the fractional overhead as a regression backstop
//! (e.g. an accidental allocation or full stats snapshot on the record
//! path shows up as 3-4x the normal reading). Since even enabled tracing
//! stays within the bound, the disabled (null-sink) path — one enum
//! discriminant check per site — is bounded a fortiori.
//!
//! Run: `cargo run --release -p horse-bench --bin rib_churn -- [pods]`
//! (default: 8). Writes `bench_results/rib_churn.json`. Set
//! `HORSE_RIB_MIN_SPEEDUP` to also gate on the wall ratio (CI runners).

use horse_bgp::msg::{Message, UpdateMsg};
use horse_bgp::naive::{clone_units, NaiveRib, NaiveStats};
use horse_bgp::rib::{AttrId, Decision, LocRib, RibStats};
use horse_bgp::session::TimerConfig;
use horse_bgp::speaker::{BgpSpeaker, SpeakerOutput};
use horse_core::RunConfig;
use horse_net::intern::PrefixId;
use horse_net::topology::NodeId;
use horse_sim::{SimDuration, SimTime};
use horse_topo::fattree::{BgpNodeSetup, FatTree, SwitchRole};
use horse_trace::{Component, TraceOptions, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// One trace event at a node, in global delivery order.
enum Ev {
    /// Session to `peer` reached Established.
    Up(Ipv4Addr),
    /// Session to `peer` went down.
    Down(Ipv4Addr),
    /// An UPDATE arrived from `peer`.
    Update(Ipv4Addr, UpdateMsg),
}

/// The live network: one real speaker per switch.
struct Net {
    speakers: BTreeMap<NodeId, BgpSpeaker>,
    /// Session-local address → owning node, for routing wire bytes.
    owner: BTreeMap<Ipv4Addr, NodeId>,
}

impl Net {
    fn build(setups: &BTreeMap<NodeId, BgpNodeSetup>) -> Net {
        let mut speakers = BTreeMap::new();
        let mut owner = BTreeMap::new();
        for (node, setup) in setups {
            for p in &setup.config.peers {
                owner.insert(p.local_addr, *node);
            }
            speakers.insert(*node, BgpSpeaker::new(setup.config.clone()));
        }
        Net { speakers, owner }
    }

    /// Shuttles bytes until quiescent, appending decoded events to `trace`.
    fn drain(&mut self, now: SimTime, trace: &mut Vec<(NodeId, Ev)>) {
        let nodes: Vec<NodeId> = self.speakers.keys().copied().collect();
        loop {
            let mut moved = false;
            for n in &nodes {
                let outs = self.speakers.get_mut(n).expect("node").take_outputs();
                for out in outs {
                    match out {
                        SpeakerOutput::SendBytes { peer, bytes } => {
                            let to = self.owner[&peer];
                            let from = self.speakers[n]
                                .config
                                .peers
                                .iter()
                                .find(|p| p.peer_addr == peer)
                                .expect("configured peer")
                                .local_addr;
                            let mut off = 0;
                            while off < bytes.len() {
                                let (m, used) = Message::decode(&bytes[off..])
                                    .expect("valid wire bytes")
                                    .expect("complete message");
                                off += used;
                                if let Message::Update(u) = m {
                                    trace.push((to, Ev::Update(from, u)));
                                }
                            }
                            self.speakers
                                .get_mut(&to)
                                .expect("node")
                                .on_bytes(from, now, &bytes);
                            moved = true;
                        }
                        SpeakerOutput::SessionUp { peer } => trace.push((*n, Ev::Up(peer))),
                        SpeakerOutput::SessionDown { peer } => trace.push((*n, Ev::Down(peer))),
                        SpeakerOutput::RouteChanged { .. } => {}
                    }
                }
            }
            if !moved {
                return;
            }
        }
    }
}

/// Per-node replay state for the indexed RIB, mirroring the speaker's
/// read path (memoized decide per affected prefix, export cache).
struct NewNode {
    rib: LocRib,
    asn: u16,
    established: BTreeSet<Ipv4Addr>,
    remote_as: BTreeMap<Ipv4Addr, u16>,
    local_addr: BTreeMap<Ipv4Addr, Ipv4Addr>,
    export: BTreeMap<(Ipv4Addr, AttrId), Option<AttrId>>,
    export_hits: u64,
    export_misses: u64,
}

impl NewNode {
    fn export(&mut self, peer: Ipv4Addr, d: &Decision) {
        if d.best.peer == peer {
            return; // split horizon, outside the cache
        }
        let key = (peer, d.best.attr_id);
        if self.export.contains_key(&key) {
            self.export_hits += 1;
            return;
        }
        self.export_misses += 1;
        let val = if d.best.attrs.contains_asn(self.remote_as[&peer]) {
            None
        } else {
            let mut out = d.best.attrs.prepended(self.asn);
            out.next_hop = self.local_addr[&peer];
            out.local_pref = None;
            out.med = None;
            Some(self.rib.intern_attrs(out))
        };
        self.export.insert(key, val);
    }

    /// Reconcile + per-peer sync for one batch of affected prefix ids.
    fn sync(&mut self, ids: &[PrefixId]) {
        let peers: Vec<Ipv4Addr> = self.established.iter().copied().collect();
        for &id in ids {
            // Reconcile: one memoized read covers best + next-hops.
            let _ = self.rib.decide_id(id);
            // Each established peer's sync re-reads the memo.
            for q in &peers {
                if let Some(d) = self.rib.decide_id(id) {
                    self.export(*q, &d);
                }
            }
        }
    }
}

/// Per-node replay state for the naive RIB, mirroring the old read path.
struct OldNode {
    rib: NaiveRib,
    established: BTreeSet<Ipv4Addr>,
    remote_as: BTreeMap<Ipv4Addr, u16>,
}

impl OldNode {
    /// Old reconcile (decide for best, decide again for next-hops) plus
    /// the old per-peer sync (probe-loop decide per peer, deep export
    /// clone per announced prefix).
    fn sync(&mut self, prefixes: &BTreeSet<horse_net::addr::Ipv4Prefix>) {
        for p in prefixes {
            let _ = self.rib.decide(*p);
            let _ = self.rib.next_hops(*p);
            for q in &self.established {
                if let Some(d) = self.rib.decide(*p) {
                    if d.best.peer != *q && !d.best.attrs.contains_asn(self.remote_as[q]) {
                        // export_attrs built a fresh prepended copy.
                        let units = clone_units(&d.best.attrs) + 1;
                        self.rib.add_clone_units(units);
                    }
                }
            }
        }
    }
}

/// Replays `trace` through one standalone `LocRib` per node: the summed
/// work counters, the summed attribute-pool sizes and the wall time.
fn replay_new(
    setups: &BTreeMap<NodeId, BgpNodeSetup>,
    trace: &[(NodeId, Ev)],
) -> (RibStats, u64, f64) {
    let mut nodes: BTreeMap<NodeId, NewNode> = setups
        .iter()
        .map(|(n, s)| {
            let mut rib = LocRib::new(s.config.asn, s.config.multipath);
            for net in &s.config.networks {
                rib.originate(*net, s.config.router_id);
            }
            (
                *n,
                NewNode {
                    rib,
                    asn: s.config.asn,
                    established: BTreeSet::new(),
                    remote_as: s
                        .config
                        .peers
                        .iter()
                        .map(|p| (p.peer_addr, p.remote_as))
                        .collect(),
                    local_addr: s
                        .config
                        .peers
                        .iter()
                        .map(|p| (p.peer_addr, p.local_addr))
                        .collect(),
                    export: BTreeMap::new(),
                    export_hits: 0,
                    export_misses: 0,
                },
            )
        })
        .collect();
    let start = std::time::Instant::now();
    for (at, ev) in trace {
        let node = nodes.get_mut(at).expect("node");
        match ev {
            Ev::Up(peer) => {
                node.established.insert(*peer);
                // Newly-up sync reads the persistent live-prefix index.
                let all = node.rib.live_prefix_ids();
                for &id in &all {
                    if let Some(d) = node.rib.decide_id(id) {
                        node.export(*peer, &d);
                    }
                }
            }
            Ev::Down(peer) => {
                node.established.remove(peer);
                let affected = node.rib.drop_peer(*peer);
                node.sync(&affected);
            }
            Ev::Update(from, u) => {
                let affected = node.rib.update_from_peer(*from, true, u);
                node.sync(&affected);
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let mut total = RibStats::default();
    for n in nodes.values() {
        let mut s = n.rib.stats();
        s.export_cache_hits = n.export_hits;
        s.export_cache_misses = n.export_misses;
        total.merge(&s);
    }
    let attr_store_size = nodes.values().map(|n| n.rib.attr_pool().len() as u64).sum();
    (total, attr_store_size, wall)
}

fn replay_old(
    setups: &BTreeMap<NodeId, BgpNodeSetup>,
    trace: &[(NodeId, Ev)],
) -> (NaiveStats, f64) {
    let mut nodes: BTreeMap<NodeId, OldNode> = setups
        .iter()
        .map(|(n, s)| {
            let mut rib = NaiveRib::new(s.config.asn, s.config.multipath);
            for net in &s.config.networks {
                rib.originate(*net, s.config.router_id);
            }
            (
                *n,
                OldNode {
                    rib,
                    established: BTreeSet::new(),
                    remote_as: s
                        .config
                        .peers
                        .iter()
                        .map(|p| (p.peer_addr, p.remote_as))
                        .collect(),
                },
            )
        })
        .collect();
    let start = std::time::Instant::now();
    for (at, ev) in trace {
        let node = nodes.get_mut(at).expect("node");
        match ev {
            Ev::Up(peer) => {
                node.established.insert(*peer);
                // Old newly-up sync: union rebuild over every per-peer
                // table, then a probe-loop decide + export clone per prefix.
                let all = node.rib.prefixes();
                for p in &all {
                    if let Some(d) = node.rib.decide(*p) {
                        if d.best.peer != *peer && !d.best.attrs.contains_asn(node.remote_as[peer])
                        {
                            let units = clone_units(&d.best.attrs) + 1;
                            node.rib.add_clone_units(units);
                        }
                    }
                }
            }
            Ev::Down(peer) => {
                node.established.remove(peer);
                let affected = node.rib.drop_peer(*peer);
                node.sync(&affected);
            }
            Ev::Update(from, u) => {
                let affected = node.rib.update_from_peer(*from, true, u);
                node.sync(&affected);
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let mut total = NaiveStats::default();
    for n in nodes.values() {
        let s = n.rib.stats();
        total.decide_calls += s.decide_calls;
        total.candidate_touches += s.candidate_touches;
        total.attr_clone_units += s.attr_clone_units;
        total.union_work += s.union_work;
    }
    (total, wall)
}

/// One full live-speaker convergence (build, start, transports up, drain),
/// optionally with ring tracing on every speaker. Returns the wall seconds
/// for the timed replay (sink setup and teardown excluded) and the number
/// of trace events the run recorded.
fn convergence_wall(
    setups: &BTreeMap<NodeId, BgpNodeSetup>,
    trace: Option<TraceOptions>,
) -> (f64, u64) {
    let mut net = Net::build(setups);
    let nodes: Vec<NodeId> = net.speakers.keys().copied().collect();
    if let Some(opts) = trace {
        let epoch = std::time::Instant::now();
        for node in &nodes {
            net.speakers
                .get_mut(node)
                .expect("node")
                .set_tracer(Tracer::ring(Component::Bgp(node.0), opts.capacity, epoch));
        }
    }
    let now = SimTime::ZERO;
    let start = std::time::Instant::now();
    for s in net.speakers.values_mut() {
        s.start(now);
    }
    let ups: Vec<(NodeId, Vec<Ipv4Addr>)> = net
        .speakers
        .iter()
        .map(|(n, s)| (*n, s.config.peers.iter().map(|p| p.peer_addr).collect()))
        .collect();
    for (n, peers) in ups {
        for p in peers {
            net.speakers
                .get_mut(&n)
                .expect("node")
                .on_transport_up(p, now);
        }
    }
    let mut sink = Vec::new();
    net.drain(now, &mut sink);
    let wall = start.elapsed().as_secs_f64();
    let mut events = 0;
    for node in &nodes {
        if let Some(log) = net.speakers.get_mut(node).expect("node").take_trace_log() {
            events += log.events.len() as u64 + log.dropped;
        }
    }
    (wall, events)
}

fn main() {
    let cfg = RunConfig::from_env();
    let k = horse_bench::single_k("rib_churn [k]", 8);
    let ft = FatTree::build(k, SwitchRole::BgpRouter, 1e9, 1_000);
    let timers = TimerConfig {
        // Zero disables keepalives; the FIFO harness never polls timers,
        // so sessions live for the whole replay.
        hold_time: SimDuration::ZERO,
        connect_retry: SimDuration::from_secs(1),
        mrai: SimDuration::ZERO,
    };
    let setups = ft.bgp_setups(timers);

    // Phase 1: full convergence on the live speakers, tapped.
    let mut net = Net::build(&setups);
    let mut trace: Vec<(NodeId, Ev)> = Vec::new();
    let mut t = 0u64;
    let now = |t: u64| SimTime::from_millis(t);
    for s in net.speakers.values_mut() {
        s.start(now(t));
    }
    let ups: Vec<(NodeId, Vec<Ipv4Addr>)> = net
        .speakers
        .iter()
        .map(|(n, s)| (*n, s.config.peers.iter().map(|p| p.peer_addr).collect()))
        .collect();
    for (n, peers) in ups {
        for p in peers {
            net.speakers
                .get_mut(&n)
                .expect("node")
                .on_transport_up(p, now(t));
        }
    }
    net.drain(now(t), &mut trace);
    let edge0 = ft.edges[0];
    assert!(
        net.speakers[&edge0].rib().prefix_count() >= ft.edges.len(),
        "convergence incomplete: edge knows {} prefixes",
        net.speakers[&edge0].rib().prefix_count()
    );

    // Phase 2: eight agg–core session flaps (down, drain, up, drain).
    let cores: BTreeSet<NodeId> = ft.cores.iter().copied().collect();
    let flaps = 8usize;
    for i in 0..flaps {
        let agg = ft.aggs[(i * ft.aggs.len()) / flaps % ft.aggs.len()];
        let (peer_addr, local_addr) = setups[&agg]
            .config
            .peers
            .iter()
            .find(|p| cores.contains(&net.owner[&p.peer_addr]))
            .map(|p| (p.peer_addr, p.local_addr))
            .expect("agg has a core-facing peer");
        let core = net.owner[&peer_addr];
        t += 1;
        net.speakers
            .get_mut(&agg)
            .expect("agg")
            .on_transport_down(peer_addr, now(t));
        net.speakers
            .get_mut(&core)
            .expect("core")
            .on_transport_down(local_addr, now(t));
        net.drain(now(t), &mut trace);
        t += 1;
        net.speakers
            .get_mut(&agg)
            .expect("agg")
            .on_transport_up(peer_addr, now(t));
        net.speakers
            .get_mut(&core)
            .expect("core")
            .on_transport_up(local_addr, now(t));
        net.drain(now(t), &mut trace);
    }

    let mut speaker_rib = RibStats::default();
    let mut speaker_attr_store_size = 0u64;
    for s in net.speakers.values() {
        speaker_rib.merge(&s.rib_stats());
        speaker_attr_store_size += s.rib().attr_pool().len() as u64;
    }
    let updates = trace
        .iter()
        .filter(|(_, e)| matches!(e, Ev::Update(..)))
        .count();
    let session_events = trace.len() - updates;

    // Phase 3: replay the identical trace through both RIB models.
    let (new_stats, new_attr_store_size, new_wall) = replay_new(&setups, &trace);
    let (old_stats, old_wall) = replay_old(&setups, &trace);

    let work_ratio = old_stats.decision_work() as f64 / new_stats.decision_work().max(1) as f64;
    let wall_ratio = old_wall / new_wall.max(1e-9);

    println!("== RIB cost: indexed/memoized vs naive (fat-tree k={k}, BGP) ==");
    println!(
        "workload: {} speakers, {} trace events ({updates} updates, {session_events} session transitions), {flaps} agg-core flaps",
        net.speakers.len(),
        trace.len(),
    );
    println!();
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>12} {:>10}",
        "rib", "decide calls", "cand touches", "work", "clone units", "wall (ms)"
    );
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>12} {:>10.2}",
        "new",
        new_stats.decide_calls,
        new_stats.candidate_touches,
        new_stats.decision_work(),
        new_stats.attr_interns, // distinct sets interned, not copies
        new_wall * 1e3
    );
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>12} {:>10.2}",
        "old",
        old_stats.decide_calls,
        old_stats.candidate_touches,
        old_stats.decision_work(),
        old_stats.attr_clone_units,
        old_wall * 1e3
    );
    println!();
    println!(
        "cache: {} hits / {} recomputes, {} invalidations; attrs: {} interned, {} reused; export cache: {} hits / {} misses",
        new_stats.decide_cache_hits,
        new_stats.decide_recomputes,
        new_stats.invalidations,
        new_stats.attr_interns,
        new_stats.attr_reuses,
        new_stats.export_cache_hits,
        new_stats.export_cache_misses,
    );
    println!("work ratio (old/new): {work_ratio:.1}x");
    println!("wall ratio (old/new): {wall_ratio:.1}x");
    assert!(
        work_ratio >= 3.0,
        "expected >=3x less decision work, got {work_ratio:.2}x"
    );
    if let Some(min) = cfg.rib_min_speedup {
        assert!(
            wall_ratio >= min,
            "wall speedup {wall_ratio:.2}x below HORSE_RIB_MIN_SPEEDUP={min}"
        );
    }

    // Phase 4: tracing overhead on the live-speaker convergence. The replay
    // is ~10 ms, and one-off scheduler bursts swing single samples by 10%+,
    // so a min-vs-min comparison is unstable. Instead each iteration runs a
    // back-to-back pair — which therefore shares load conditions — in
    // alternating order (so warm-up drift cancels too), and the overhead is
    // the median of the per-pair traced/untraced ratios: robust to bursts
    // that poison a few pairs outright.
    //
    // Note this replay is a stress case for the sink: the speakers record
    // roughly one event per microsecond of replay work (vs hundreds of
    // events over whole seconds in a normal traced experiment), so the
    // fractional overhead here is ~1000x an experiment's. The per-event
    // cost printed below is the workload-independent figure.
    //
    // ~225 events land per speaker: a right-sized ring keeps per-run sink
    // construction from sweeping tens of MB through the cache, which would
    // otherwise dominate a replay this short.
    let trace_opts = TraceOptions::with_capacity(1024);
    convergence_wall(&setups, None); // warmup: fault in code + allocator
    let mut untraced_wall = f64::INFINITY;
    let mut traced_wall = f64::INFINITY;
    let mut trace_events = 0;
    let mut ratios = Vec::new();
    for i in 0..15 {
        let (untraced, traced) = if i % 2 == 0 {
            let (u, _) = convergence_wall(&setups, None);
            let (t, n) = convergence_wall(&setups, Some(trace_opts));
            trace_events = n;
            (u, t)
        } else {
            let (t, n) = convergence_wall(&setups, Some(trace_opts));
            let (u, _) = convergence_wall(&setups, None);
            trace_events = n;
            (u, t)
        };
        untraced_wall = untraced_wall.min(untraced);
        traced_wall = traced_wall.min(traced);
        ratios.push(traced / untraced.max(1e-9));
    }
    ratios.sort_by(f64::total_cmp);
    let trace_overhead = ratios[ratios.len() / 2] - 1.0;
    let trace_ns_per_event =
        (traced_wall - untraced_wall).max(0.0) * 1e9 / trace_events.max(1) as f64;
    println!(
        "trace overhead: {:+.2}% (median of {} interleaved pairs; best traced {:.2} ms vs untraced {:.2} ms; {} events, ~{:.0} ns/event)",
        trace_overhead * 1e2,
        ratios.len(),
        traced_wall * 1e3,
        untraced_wall * 1e3,
        trace_events,
        trace_ns_per_event
    );
    if let Some(max) = cfg.trace_max_overhead {
        assert!(
            trace_overhead <= max,
            "tracing overhead {:.4} above HORSE_TRACE_MAX_OVERHEAD={max}",
            trace_overhead
        );
    }

    let new_json = format!(
        "{{\"decide_calls\": {}, \"decide_cache_hits\": {}, \"decide_recomputes\": {}, \
         \"invalidations\": {}, \"candidate_touches\": {}, \"attr_interns\": {}, \
         \"attr_reuses\": {}, \"attr_store_size\": {}, \"export_cache_hits\": {}, \
         \"export_cache_misses\": {}, \"decision_work\": {}, \"wall_secs\": {new_wall}}}",
        new_stats.decide_calls,
        new_stats.decide_cache_hits,
        new_stats.decide_recomputes,
        new_stats.invalidations,
        new_stats.candidate_touches,
        new_stats.attr_interns,
        new_stats.attr_reuses,
        new_attr_store_size,
        new_stats.export_cache_hits,
        new_stats.export_cache_misses,
        new_stats.decision_work(),
    );
    let old_json = format!(
        "{{\"decide_calls\": {}, \"candidate_touches\": {}, \"attr_clone_units\": {}, \
         \"union_work\": {}, \"decision_work\": {}, \"wall_secs\": {old_wall}}}",
        old_stats.decide_calls,
        old_stats.candidate_touches,
        old_stats.attr_clone_units,
        old_stats.union_work,
        old_stats.decision_work(),
    );
    let speaker_json = format!(
        "{{\"decide_calls\": {}, \"decide_cache_hits\": {}, \"invalidations\": {}, \
         \"candidate_touches\": {}, \"attr_interns\": {}, \"attr_reuses\": {}, \
         \"attr_store_size\": {}, \"export_cache_hits\": {}, \"export_cache_misses\": {}}}",
        speaker_rib.decide_calls,
        speaker_rib.decide_cache_hits,
        speaker_rib.invalidations,
        speaker_rib.candidate_touches,
        speaker_rib.attr_interns,
        speaker_rib.attr_reuses,
        speaker_attr_store_size,
        speaker_rib.export_cache_hits,
        speaker_rib.export_cache_misses,
    );
    let json = format!(
        "{{\n  \"topology\": \"fat-tree k={k} (BGP)\",\n  \"speakers\": {},\n  \
         \"trace_events\": {},\n  \"updates\": {updates},\n  \
         \"session_events\": {session_events},\n  \"flaps\": {flaps},\n  \
         \"new\": {new_json},\n  \"old\": {old_json},\n  \
         \"speaker_rib\": {speaker_json},\n  \
         \"work_ratio\": {work_ratio},\n  \"wall_ratio\": {wall_ratio},\n  \
         \"trace_wall_traced_secs\": {traced_wall},\n  \
         \"trace_wall_untraced_secs\": {untraced_wall},\n  \
         \"trace_overhead\": {trace_overhead},\n  \
         \"trace_ns_per_event\": {trace_ns_per_event}\n}}\n",
        net.speakers.len(),
        trace.len(),
    );
    horse_bench::write_result("rib_churn.json", &json);
}
