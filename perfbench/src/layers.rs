//! The traced run: per-layer numbers for one workload.
//!
//! * Counts come from the program's report counters and from its
//!   `horse-trace` events, counted by kind.
//! * Times come from benchmark-side spans ([`SpanLog`]) around calls
//!   into each layer's public functions. Where a span cannot wrap the
//!   live run, it wraps a replay of the workload's own inputs through
//!   the layer's API: BGP speakers shuttling bytes over an in-memory
//!   FIFO, a `FluidNetwork` driven by the workload's flows, flow tables
//!   and FIBs filled to the workload's sizes, the event queue fed the
//!   run's dispatch sequence, and OpenFlow messages in the counted mix.
//! * `trace.overhead_frac` compares traced and untraced repetitions of
//!   the same workload, run in turn inside this run.
//!
//! Per-layer times are unscaled wall time: they attribute a run's time
//! to layers and carry no bound, so host speed is not taken out of them.

use crate::spans::{SpanId, SpanLog};
use crate::stats;
use crate::workloads::{self, fresh_dir, run_rep, ExpRun, Rep, SweepMode, Workload};
use crate::Outcome;
use bytes::Bytes;
use horse_bgp::msg::Message;
use horse_bgp::speaker::{BgpSpeaker, SpeakerOutput};
use horse_core::{ControlBuild, Experiment, ExperimentReport};
use horse_dataplane::fib::{Fib, NextHop, RouteEntry, RouteOrigin};
use horse_dataplane::flowtable::{Action, FlowEntry, FlowKey, FlowTable, Match};
use horse_net::addr::Ipv4Prefix;
use horse_net::flow::{FiveTuple, FlowId};
use horse_net::fluid::FluidNetwork;
use horse_net::topology::{LinkId, NodeId, PortId};
use horse_openflow::wire::{
    FlowMod, FlowModCommand, FlowStatsEntry, OfAction, OfMessage, OfPacket, PacketIn, StatsBody,
    OFPR_NO_MATCH,
};
use horse_sim::{EventQueue, SimTime};
use horse_topo::fattree::BgpNodeSetup;
use horse_trace::{TraceData, TraceLog, TraceOptions};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Duration;

/// Per-layer values keyed by metric name.
type Values = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The reports (and traces) of one repetition, sweep or not, with each
/// experiment's wall time measured outside `run()`.
fn experiments_of(rep: &Rep) -> Vec<(&ExperimentReport, Option<&TraceLog>, f64)> {
    match &rep.in_memory {
        Some(sweep) => sweep
            .runs
            .iter()
            .map(|r| (&r.report, r.trace.as_ref(), r.wall_ms / 1e3))
            .collect(),
        None => rep
            .runs
            .iter()
            .map(
                |ExpRun {
                     report,
                     trace,
                     outside_s,
                 }| (report, trace.as_ref(), *outside_s),
            )
            .collect(),
    }
}

/// Runner build, loop and teardown seconds of one repetition (teardown
/// is the outside wall minus the reported build and loop).
fn runner_walls(rep: &Rep) -> (f64, f64, f64) {
    let mut build = 0.0;
    let mut run = 0.0;
    let mut teardown = 0.0;
    for (r, _, outside) in experiments_of(rep) {
        build += r.wall_setup_secs;
        run += r.wall_run_secs;
        teardown += (outside - r.wall_setup_secs - r.wall_run_secs).max(0.0);
    }
    (build, run, teardown)
}

/// Report counters and trace-event counts summed over a repetition.
fn counts(rep: &Rep, v: &mut Values) {
    let mut add = |k: &'static str, x: f64| *v.entry(k).or_insert(0.0) += x;
    let mut nodes_total = 0.0;
    let (mut hits, mut calls) = (0.0, 0.0);
    let (mut reuses, mut interns) = (0.0, 0.0);
    let (mut ex_hits, mut ex_misses) = (0.0, 0.0);
    let mut stale = 0.0;
    let mut pushes = 0.0;
    let mut prefixes = 0.0;
    let mut rules_per_switch: HashMap<u32, u64> = HashMap::new();
    for (r, trace, _) in experiments_of(rep) {
        add("core.events", r.events_processed as f64);
        add("core.fti_vs", r.fti_time.as_secs_f64());
        add("core.transitions", r.transitions.len() as f64);
        add("pump.steps", r.pump_steps as f64);
        add("pump.nodes_touched", r.pump_nodes_touched as f64);
        nodes_total += r.pump_nodes_total as f64;
        add("pump.table_scans", r.pump_table_scans as f64);
        add("pump.parallel_rounds", r.pump_parallel_rounds as f64);
        add("cm.msgs", r.control_msgs as f64);
        add("bgp.decide_calls", r.rib_decide_calls as f64);
        calls += r.rib_decide_calls as f64;
        hits += r.rib_decide_cache_hits as f64;
        add("bgp.candidate_touches", r.rib_candidate_touches as f64);
        reuses += r.rib_attr_reuses as f64;
        interns += r.rib_attr_interns as f64;
        ex_hits += r.rib_export_cache_hits as f64;
        ex_misses += r.rib_export_cache_misses as f64;
        add("controller.moves", r.scheduler_moves as f64);
        add("dataplane.table_writes", r.table_writes as f64);
        add("fluid.solves", r.fluid_solves as f64);
        add("fluid.flows_touched", r.fluid_flows_touched as f64);
        stale += r.fluid_heap_stale_pops as f64;
        pushes += r.fluid_heap_pushes as f64;
        add("mem.attr_bytes", r.mem_attr_bytes_est as f64);
        add("mem.prefix_ids", r.mem_prefix_ids as f64);
        add("trace.events", r.trace.events as f64);
        add("trace.dropped", r.trace.dropped as f64);
        let Some(trace) = trace else { continue };
        let mut rules: HashMap<u32, u64> = HashMap::new();
        for (_, ev) in &trace.events {
            match ev.data {
                TraceData::BgpRx { .. } => add("bgp.updates_rx", 1.0),
                TraceData::BgpTx {
                    announced,
                    withdrawn,
                    ..
                } => {
                    add("bgp.updates_tx", 1.0);
                    prefixes += f64::from(announced + withdrawn);
                }
                TraceData::MraiFlush { .. } => add("bgp.mrai_flushes", 1.0),
                TraceData::OfPacketIn { .. } => add("openflow.packet_ins", 1.0),
                TraceData::OfFlowMod { node } => {
                    add("openflow.flow_mods", 1.0);
                    *rules.entry(node).or_insert(0) += 1;
                }
                TraceData::OfStatsReply { .. } => add("openflow.stats_replies", 1.0),
                _ => {}
            }
        }
        for (node, n) in rules {
            let max = rules_per_switch.entry(node).or_insert(0);
            *max = (*max).max(n);
        }
    }
    let touched = v.get("pump.nodes_touched").copied().unwrap_or(0.0);
    v.insert("pump.touch_ratio", ratio(touched, nodes_total));
    v.insert("bgp.decide_hit_ratio", ratio(hits, calls));
    v.insert("bgp.attr_reuse_ratio", ratio(reuses, reuses + interns));
    v.insert("bgp.export_hit_ratio", ratio(ex_hits, ex_hits + ex_misses));
    let tx = v.get("bgp.updates_tx").copied().unwrap_or(0.0);
    v.insert("bgp.prefixes_per_update", ratio(prefixes, tx));
    let solves = v.get("fluid.solves").copied().unwrap_or(0.0);
    let flows = v.get("fluid.flows_touched").copied().unwrap_or(0.0);
    v.insert("fluid.touched_per_solve", ratio(flows, solves));
    v.insert("fluid.heap_stale_ratio", ratio(stale, pushes));
    v.insert(
        "dataplane.rules_max",
        rules_per_switch.values().copied().max().unwrap_or(0) as f64,
    );
}

/// Repetitions of one workload inside the traced run, untraced and
/// traced in turn so that both see the same host conditions.
struct Pairs {
    /// `run_s` of each untraced repetition.
    plain_run_s: Vec<f64>,
    /// `run_s` of each traced repetition.
    traced_run_s: Vec<f64>,
    /// Runner build, loop and teardown seconds of each untraced
    /// repetition.
    walls: Vec<(f64, f64, f64)>,
    /// Each untraced repetition's `run_s` minus its virtual FTI seconds
    /// (the pacer's lag behind real time, under real-time pacing).
    lag_s: Vec<f64>,
    /// The last traced repetition, reports and traces kept.
    last_traced: Rep,
}

/// Alternates untraced and traced repetitions for `budget` (at least
/// two of each), folding attempts, failures and fingerprints into `out`.
fn pairs(
    w: Workload,
    seed: u64,
    opts: TraceOptions,
    budget: Duration,
    work: &Path,
    out: &mut Outcome,
) -> Pairs {
    let start = std::time::Instant::now();
    let mut plain_run_s = Vec::new();
    let mut traced_run_s = Vec::new();
    let mut walls = Vec::new();
    let mut lag_s = Vec::new();
    loop {
        let mut last = None;
        for trace in [None, Some(opts)] {
            let dir = fresh_dir(work, "traced-rep");
            let rep = run_rep(w, seed, trace, SweepMode::InMemory, &dir);
            out.attempted += rep.attempted;
            out.failures.extend(rep.failures.iter().cloned());
            out.rss_reset &= rep.rss_reset;
            if out.reps == 0 {
                out.fingerprint = rep.fingerprint;
            } else if rep.fingerprint != out.fingerprint {
                out.failures.push(format!(
                    "traced-run repetition {} fingerprint {:016x} != {:016x}",
                    out.reps, rep.fingerprint, out.fingerprint
                ));
            }
            out.reps += 1;
            if trace.is_some() {
                traced_run_s.push(rep.run_s);
                last = Some(rep);
            } else {
                plain_run_s.push(rep.run_s);
                walls.push(runner_walls(&rep));
                lag_s.push(rep.run_s - rep.paced_s);
            }
        }
        if traced_run_s.len() >= 2 && start.elapsed() >= budget {
            return Pairs {
                plain_run_s,
                traced_run_s,
                walls,
                lag_s,
                last_traced: last.expect("a traced repetition ran"),
            };
        }
    }
}

/// One BGP network shuttling bytes between real speakers over an
/// in-memory FIFO, with the experiment's link flaps and timers.
struct Shuttle {
    speakers: Vec<BgpSpeaker>,
    /// Local address → speaker index.
    owner: HashMap<Ipv4Addr, usize>,
    /// (speaker, peer address) → the speaker's local address.
    local: HashMap<(usize, Ipv4Addr), Ipv4Addr>,
    /// Every byte buffer delivered, for the codec replay.
    sent: Vec<Bytes>,
}

impl Shuttle {
    fn new(setups: &BTreeMap<NodeId, BgpNodeSetup>) -> Shuttle {
        let mut owner = HashMap::new();
        let mut local = HashMap::new();
        let mut speakers = Vec::new();
        for (i, setup) in setups.values().enumerate() {
            for p in &setup.config.peers {
                owner.insert(p.local_addr, i);
                local.insert((i, p.peer_addr), p.local_addr);
            }
            speakers.push(BgpSpeaker::new(setup.config.clone()));
        }
        Shuttle {
            speakers,
            owner,
            local,
            sent: Vec::new(),
        }
    }

    fn drain(&mut self, now: SimTime) {
        loop {
            let mut moved = false;
            for i in 0..self.speakers.len() {
                for out in self.speakers[i].take_outputs() {
                    if let SpeakerOutput::SendBytes { peer, bytes } = out {
                        let to = self.owner[&peer];
                        let from = self.local[&(i, peer)];
                        self.speakers[to].on_bytes(from, now, &bytes);
                        self.sent.push(bytes);
                        moved = true;
                    }
                }
            }
            if !moved {
                return;
            }
        }
    }

    /// Runs until no timer or flap is left before the horizon, applying
    /// `flaps` in time order.
    fn run(&mut self, flaps: &[SessionFlap], horizon: SimTime) {
        let mut now = SimTime::ZERO;
        for s in &mut self.speakers {
            s.start(now);
            let peers: Vec<Ipv4Addr> = s.config.peers.iter().map(|p| p.peer_addr).collect();
            for p in peers {
                s.on_transport_up(p, now);
            }
        }
        let mut next_flap = 0;
        loop {
            self.drain(now);
            let deadline = self.speakers.iter().filter_map(|s| s.next_deadline()).min();
            let flap_at = flaps.get(next_flap).map(|f| f.at);
            let Some(next) = [deadline, flap_at].into_iter().flatten().min() else {
                return;
            };
            if next > horizon {
                return;
            }
            now = now.max(next);
            while let Some(flap) = flaps.get(next_flap) {
                if flap.at > now {
                    break;
                }
                for &(i, peer) in &flap.sessions {
                    if flap.up {
                        self.speakers[i].on_transport_up(peer, now);
                    } else {
                        self.speakers[i].on_transport_down(peer, now);
                    }
                }
                next_flap += 1;
            }
            for s in &mut self.speakers {
                if s.next_deadline().is_some_and(|d| d <= now) {
                    s.poll_timers(now);
                }
            }
        }
    }
}

/// A link event as the transport change of the BGP sessions riding it.
struct SessionFlap {
    at: SimTime,
    /// (speaker index, peer address) of each session on the link.
    sessions: Vec<(usize, Ipv4Addr)>,
    up: bool,
}

/// The experiment's link events as session transport changes: the
/// session on a link is the one whose peer address the endpoint reaches
/// through the link's port.
fn session_flaps(exp: &Experiment, setups: &BTreeMap<NodeId, BgpNodeSetup>) -> Vec<SessionFlap> {
    let index: BTreeMap<NodeId, usize> = setups.keys().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut events = exp.link_events.clone();
    events.sort_by_key(|e| e.at);
    events
        .iter()
        .map(|e| {
            let l = exp.topo.link(e.link);
            let sessions = [l.a, l.b]
                .iter()
                .filter_map(|end| {
                    let setup = setups.get(&end.node)?;
                    let peer = setup
                        .addr_to_port
                        .iter()
                        .find(|(_, port)| **port == end.port)
                        .map(|(addr, _)| *addr)?;
                    Some((index[&end.node], peer))
                })
                .collect();
            SessionFlap {
                at: e.at,
                sessions,
                up: e.up,
            }
        })
        .collect()
}

fn bgp_setups(exp: &Experiment) -> Option<&BTreeMap<NodeId, BgpNodeSetup>> {
    match &exp.control {
        ControlBuild::Bgp(setups) => Some(setups),
        _ => None,
    }
}

/// BGP speakers (`bgp.speaker`) and the UPDATE codec (`bgp.codec`):
/// shuttle each BGP experiment's speakers, then decode and re-encode
/// every byte buffer they exchanged.
fn replay_bgp(exps: &[Experiment], log: &mut SpanLog, parent: SpanId) {
    for exp in exps {
        let Some(setups) = bgp_setups(exp) else {
            continue;
        };
        let flaps = session_flaps(exp, setups);
        let span = log.begin("bgp.speaker", Some(parent));
        let mut net = Shuttle::new(setups);
        net.run(&flaps, exp.horizon);
        log.end(span);
        let sent = std::mem::take(&mut net.sent);
        drop(net);
        log.time("bgp.codec", Some(parent), || {
            for buf in &sent {
                let mut off = 0;
                while off < buf.len() {
                    let Ok(Some((msg, used))) = Message::decode(&buf[off..]) else {
                        break;
                    };
                    black_box(msg.encode());
                    off += used;
                }
            }
        });
    }
}

fn synth_tuple(i: u64) -> FiveTuple {
    FiveTuple::tcp(
        Ipv4Addr::from(0x0a00_0000 | (i as u32 & 0x00ff_ffff)),
        (i >> 8) as u16 | 1024,
        Ipv4Addr::from(0x0a80_0000 | ((i as u32).wrapping_mul(2_654_435_761) & 0x007f_ffff)),
        5201,
    )
}

/// `FlowTable::add` then `lookup` of every rule, per switch, at the
/// workload's per-switch FLOW_MOD counts. Returns operations done.
fn replay_flowtables(rules: &[u64], log: &mut SpanLog, parent: SpanId) -> u64 {
    let span = log.begin("dataplane.flowtable", Some(parent));
    let mut ops = 0;
    for &n in rules {
        let mut table = FlowTable::new();
        for i in 0..n {
            let entry = FlowEntry::new(
                Match::exact(synth_tuple(i)),
                100,
                vec![Action::Output(PortId(1 + (i % 4) as u16))],
            );
            table.add(entry, SimTime::ZERO);
        }
        for i in 0..n {
            black_box(table.lookup(&FlowKey::ipv4(None, synth_tuple(i))));
        }
        ops += 2 * n;
    }
    log.end(span);
    ops
}

/// `Fib::insert` of every remote prefix at every BGP router. Returns
/// inserts done.
fn replay_fibs(exps: &[Experiment], log: &mut SpanLog, parent: SpanId) -> u64 {
    let mut ops = 0;
    for exp in exps {
        let Some(setups) = bgp_setups(exp) else {
            continue;
        };
        let all: Vec<(NodeId, Ipv4Prefix)> = setups
            .iter()
            .flat_map(|(n, s)| s.config.networks.iter().map(move |p| (*n, *p)))
            .collect();
        let span = log.begin("dataplane.fib", Some(parent));
        for node in setups.keys() {
            let mut fib = Fib::new();
            for (origin, prefix) in &all {
                if origin == node {
                    continue;
                }
                let hop = NextHop {
                    port: PortId(1),
                    gateway: Ipv4Addr::from(0x0a00_0001),
                };
                black_box(fib.insert(*prefix, RouteEntry::new(vec![hop], RouteOrigin::Bgp)));
                ops += 1;
            }
            black_box(&fib);
        }
        log.end(span);
    }
    ops
}

/// `EventQueue` push then `pop_due` of the run's dispatch sequence.
/// Returns operations done.
fn replay_queue(times: &[SimTime], log: &mut SpanLog, parent: SpanId) -> u64 {
    let span = log.begin("sim.queue", Some(parent));
    let mut q: EventQueue<u32> = EventQueue::new();
    for (i, t) in times.iter().enumerate() {
        q.push(*t, i as u32);
    }
    let end = times.iter().copied().max().unwrap_or(SimTime::ZERO);
    while let Some(ev) = q.pop_due(end) {
        black_box(ev);
    }
    log.end(span);
    2 * times.len() as u64
}

/// OpenFlow encode and decode of the counted PACKET_IN / FLOW_MOD /
/// stats-reply mix.
fn replay_openflow(v: &Values, entries_per_reply: u32, log: &mut SpanLog, parent: SpanId) {
    let tuple = synth_tuple(7);
    let packet_in = OfPacket::new(
        1,
        OfMessage::PacketIn(PacketIn {
            buffer_id: 0xffff_ffff,
            total_len: 64,
            in_port: 1,
            reason: OFPR_NO_MATCH,
            data: Bytes::copy_from_slice(&[0u8; 64]),
        }),
    );
    let flow_mod = OfPacket::new(
        2,
        OfMessage::FlowMod(FlowMod {
            matcher: Match::exact(tuple),
            cookie: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 100,
            buffer_id: 0xffff_ffff,
            out_port: 0xffff,
            flags: 0,
            actions: vec![OfAction::Output {
                port: 2,
                max_len: 0,
            }],
        }),
    );
    let entry = FlowStatsEntry {
        matcher: Match::exact(tuple),
        duration_sec: 5,
        priority: 100,
        idle_timeout: 0,
        hard_timeout: 0,
        cookie: 0,
        packet_count: 1_000,
        byte_count: 1_500_000,
        actions: vec![OfAction::Output {
            port: 2,
            max_len: 0,
        }],
    };
    let stats_reply = OfPacket::new(
        3,
        OfMessage::StatsReply(StatsBody::FlowReply(vec![
            entry;
            entries_per_reply.max(1) as usize
        ])),
    );
    let n = |k: &str| v.get(k).copied().unwrap_or(0.0) as u64;
    let mix = [
        (packet_in, n("openflow.packet_ins")),
        (flow_mod, n("openflow.flow_mods")),
        (stats_reply, n("openflow.stats_replies")),
    ];
    log.time("openflow.codec", Some(parent), || {
        for (pkt, count) in &mix {
            for _ in 0..*count {
                let wire = pkt.encode();
                black_box(OfPacket::decode(&wire).expect("own encoding decodes"));
            }
        }
    });
}

/// A `FluidNetwork` driven by each experiment's flows in start order:
/// deferred starts flushed once per start instant (`fluid.flush`),
/// completions drained before each start (`fluid.completion`), finished
/// or horizon-cut flows stopped (`fluid.stop`).
fn replay_fluid(exps: &[Experiment], log: &mut SpanLog, parent: SpanId) {
    for exp in exps {
        if exp.traffic.is_empty() {
            continue;
        }
        let topo = &exp.topo;
        let mut traffic = exp.traffic.clone();
        traffic.sort_by_key(|t| t.start);
        let mut paths: HashMap<(NodeId, NodeId), Vec<Vec<LinkId>>> = HashMap::new();
        let mut net = FluidNetwork::new();
        let mut live: BTreeSet<FlowId> = BTreeSet::new();
        let drive = log.begin("replay.fluid", Some(parent));
        let mut i = 0;
        while i < traffic.len() {
            let at = traffic[i].start;
            loop {
                let c = log.begin("fluid.completion", Some(drive));
                let next = net.next_completion();
                log.end(c);
                match next {
                    Some((t, id)) if t <= at => {
                        let s = log.begin("fluid.stop", Some(drive));
                        net.stop(t, id, topo).expect("live flow stops");
                        log.end(s);
                        live.remove(&id);
                    }
                    _ => break,
                }
            }
            while i < traffic.len() && traffic[i].start == at {
                let spec = traffic[i].spec;
                let options = paths
                    .entry((spec.src, spec.dst))
                    .or_insert_with(|| topo.all_shortest_paths(spec.src, spec.dst));
                if !options.is_empty() {
                    let path = options[i % options.len()].clone();
                    let id = net
                        .start_deferred(at, spec, path, topo)
                        .expect("shortest path connects the flow");
                    live.insert(id);
                }
                i += 1;
            }
            let f = log.begin("fluid.flush", Some(drive));
            black_box(net.flush(topo));
            log.end(f);
        }
        loop {
            let c = log.begin("fluid.completion", Some(drive));
            let next = net.next_completion();
            log.end(c);
            let Some((t, id)) = next.filter(|(t, _)| *t <= exp.horizon) else {
                break;
            };
            let s = log.begin("fluid.stop", Some(drive));
            net.stop(t, id, topo).expect("live flow stops");
            log.end(s);
            live.remove(&id);
        }
        // Flows still running at the horizon (the demo's CBR flows).
        for id in live {
            let s = log.begin("fluid.stop", Some(drive));
            net.stop(exp.horizon, id, topo).expect("live flow stops");
            log.end(s);
        }
        log.end(drive);
    }
}

/// The zoo sweep's pool and checkpoint metrics: one checkpointed sweep
/// (per-run walls, busy fraction, checkpoint size) then a restore-only
/// pass over the finished checkpoint (`sweep.resume`).
fn replay_sweep(seed: u64, work: &Path, log: &mut SpanLog, parent: SpanId, out: &mut Outcome) {
    let dir = fresh_dir(work, "sweep-layer");
    let rep = run_rep(Workload::ZooSweep, seed, None, SweepMode::Resumable, &dir);
    out.attempted += rep.attempted;
    out.failures.extend(rep.failures.iter().cloned());
    let Some(sw) = rep.checkpointed else { return };
    let v = &mut out.values;
    let walls: Vec<f64> = sw.sweep.runs.iter().map(|r| r.wall_ms / 1e3).collect();
    if let Some(p50) = stats::supported_quantile(&walls, 0.5) {
        v.insert("sweep.exp_p50_s", p50);
    }
    if let Some(p90) = stats::supported_quantile(&walls, 0.9) {
        v.insert("sweep.exp_p90_s", p90);
    }
    let busy: f64 = walls.iter().sum();
    v.insert(
        "sweep.busy_frac",
        ratio(busy, workloads::ZOO_WORKERS as f64 * rep.run_s),
    );
    v.insert(
        "sweep.checkpoint_bytes",
        std::fs::metadata(&sw.sweep.path).map_or(0.0, |m| m.len() as f64),
    );
    let restored = log.time("sweep.resume", Some(parent), || {
        sw.plan.execute_resumable(&sw.cfg)
    });
    v.insert("sweep.resume_s", log.self_secs("sweep.resume"));
    match restored {
        Ok(s) if s.executed == 0 && s.restored == walls.len() => {}
        Ok(s) => out.failures.push(format!(
            "restore-only sweep executed {} runs, restored {}",
            s.executed, s.restored
        )),
        Err(e) => out.failures.push(format!("restore-only sweep: {e}")),
    }
}

/// Runs the traced measurement of one workload. Returns the outcome and
/// the span log as JSON.
pub fn traced(w: Workload, seed: u64, seconds: f64, work: &Path) -> (Outcome, String) {
    let mut out = Outcome {
        values: BTreeMap::new(),
        attempted: 0,
        failures: Vec::new(),
        reps: 0,
        rss_reset: true,
        fingerprint: 0,
        not_applicable: Vec::new(),
        meta_numbers: Vec::new(),
    };
    let mut log = SpanLog::new();
    let root = log.begin("traced_run", None);

    let span = log.begin("reps", Some(root));
    let opts = TraceOptions::with_capacity(w.trace_capacity());
    let reps = pairs(
        w,
        seed,
        opts,
        Duration::from_secs_f64(seconds),
        work,
        &mut out,
    );
    log.end(span);
    let last = reps.last_traced;

    let v = &mut out.values;
    let med = |x: &[f64]| stats::median(x).unwrap_or(0.0);
    let wall = |i: usize| -> Vec<f64> { reps.walls.iter().map(|w| [w.0, w.1, w.2][i]).collect() };
    v.insert("core.build_s", med(&wall(0)));
    v.insert("core.loop_s", med(&wall(1)));
    v.insert("core.teardown_s", med(&wall(2)));
    if w == Workload::Fig3Rt {
        v.insert("sim.pacer_lag_s", med(&reps.lag_s));
    }
    v.insert(
        "trace.overhead_frac",
        ratio(med(&reps.traced_run_s), med(&reps.plain_run_s)) - 1.0,
    );
    counts(&last, v);

    // Inputs for the replays, taken from the traced repetition.
    let mut dispatch: Vec<SimTime> = Vec::new();
    let mut rules: Vec<u64> = Vec::new();
    let (mut replies, mut entries) = (0u64, 0u64);
    let mut largest_log = 0;
    for (_, trace, _) in experiments_of(&last) {
        let Some(trace) = trace else { continue };
        let mut per_component: HashMap<_, usize> = HashMap::new();
        for (c, _) in &trace.events {
            *per_component.entry(*c).or_insert(0) += 1;
        }
        largest_log = largest_log.max(per_component.values().copied().max().unwrap_or(0));
        let mut per_switch: BTreeMap<u32, u64> = BTreeMap::new();
        for (_, ev) in &trace.events {
            match ev.data {
                TraceData::EventDispatch { .. } => dispatch.push(ev.t),
                TraceData::OfFlowMod { node } => *per_switch.entry(node).or_insert(0) += 1,
                TraceData::OfStatsReply { entries: e, .. } => {
                    replies += 1;
                    entries += u64::from(e);
                }
                _ => {}
            }
        }
        rules.extend(per_switch.values());
    }
    drop(last);
    eprintln!(
        "[{}] largest per-component trace log: {largest_log} events (ring capacity {})",
        w.name(),
        w.trace_capacity()
    );

    log.time("topo.build", Some(root), || workloads::build_topologies(w));
    let exps = workloads::experiments(w, seed);
    let replay = log.begin("replay", Some(root));
    let queue_ops = replay_queue(&dispatch, &mut log, replay);
    replay_bgp(&exps, &mut log, replay);
    let entries_per_reply = entries.checked_div(replies).unwrap_or(0) as u32;
    replay_openflow(&out.values, entries_per_reply, &mut log, replay);
    let rule_ops = replay_flowtables(&rules, &mut log, replay);
    let fib_ops = replay_fibs(&exps, &mut log, replay);
    replay_fluid(&exps, &mut log, replay);
    drop(exps);
    if w == Workload::ZooSweep {
        replay_sweep(seed, work, &mut log, replay, &mut out);
    }
    log.end(replay);
    log.end(root);

    let v = &mut out.values;
    let per_op = |span: &str, ops: u64| ratio(log.self_secs(span) * 1e9, ops as f64);
    v.insert("sim.queue_ns", per_op("sim.queue", queue_ops));
    v.insert("bgp.speaker_s", log.self_secs("bgp.speaker"));
    v.insert("bgp.codec_s", log.self_secs("bgp.codec"));
    v.insert("openflow.codec_s", log.self_secs("openflow.codec"));
    v.insert(
        "dataplane.flowtable_lookup_ns",
        per_op("dataplane.flowtable", rule_ops),
    );
    v.insert("dataplane.fib_insert_ns", per_op("dataplane.fib", fib_ops));
    v.insert("fluid.flush_s", log.self_secs("fluid.flush"));
    v.insert("fluid.completion_s", log.self_secs("fluid.completion"));
    v.insert("fluid.stop_s", log.self_secs("fluid.stop"));
    v.insert("topo.build_s", log.self_secs("topo.build"));
    out.not_applicable = crate::metrics::PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|n| out.values.get(n).is_none_or(|x| *x == 0.0))
        .collect();
    (out, log.to_json())
}
