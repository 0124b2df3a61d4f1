//! Property tests: the LPM trie and the OpenFlow table agree with naive
//! reference implementations under arbitrary operation sequences.

use horse_dataplane::fib::{Fib, NextHop, RouteEntry, RouteOrigin};
use horse_dataplane::flowtable::{Action, FlowEntry, FlowKey, FlowTable, Match};
use horse_net::addr::Ipv4Prefix;
use horse_net::flow::FiveTuple;
use horse_net::topology::PortId;
use horse_sim::SimTime;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn prefixes() -> impl Strategy<Value = Ipv4Prefix> {
    // Cluster prefixes in 10/8 so inserts overlap heavily.
    (0u32..=0xffff, 8u8..=32)
        .prop_map(|(bits, len)| Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000 | bits), len))
}

#[derive(Debug, Clone)]
enum FibOp {
    Insert(Ipv4Prefix, u16, RouteOrigin),
    Remove(Ipv4Prefix),
    Lookup(u32),
    Get(Ipv4Prefix),
    FlushOrigin(RouteOrigin),
}

/// Two origins, so a flush keeps some routes and drops others.
fn fib_origins() -> impl Strategy<Value = RouteOrigin> {
    prop_oneof![Just(RouteOrigin::Static), Just(RouteOrigin::Bgp)]
}

fn fib_ops() -> impl Strategy<Value = Vec<FibOp>> {
    prop::collection::vec(
        prop_oneof![
            (prefixes(), 0u16..16, fib_origins())
                .prop_map(|(p, port, origin)| FibOp::Insert(p, port, origin)),
            prefixes().prop_map(FibOp::Remove),
            (0u32..=0x1ffff).prop_map(FibOp::Lookup),
            prefixes().prop_map(FibOp::Get),
            fib_origins().prop_map(FibOp::FlushOrigin),
        ],
        0..120,
    )
}

fn entry(port: u16) -> RouteEntry {
    entry_from(port, RouteOrigin::Static)
}

fn entry_from(port: u16, origin: RouteOrigin) -> RouteEntry {
    RouteEntry::new(
        vec![NextHop {
            port: PortId(port),
            gateway: Ipv4Addr::UNSPECIFIED,
        }],
        origin,
    )
}

proptest! {
    /// The trie behaves exactly like a Vec of (prefix → entry) with
    /// longest-prefix-wins lookup, across the whole API: the entry
    /// `insert` replaces, exact-match `get`, `remove`, `flush_origin`,
    /// `len` and, at the end, `iter`.
    #[test]
    fn fib_matches_naive_model(ops in fib_ops()) {
        let mut fib = Fib::new();
        let mut model: Vec<(Ipv4Prefix, RouteEntry)> = Vec::new();
        let find = |model: &[(Ipv4Prefix, RouteEntry)], p: Ipv4Prefix| {
            model.iter().find(|(mp, _)| *mp == p).map(|(_, e)| e.clone())
        };
        for op in ops {
            match op {
                FibOp::Insert(p, port, origin) => {
                    let e = entry_from(port, origin);
                    let prev = fib.insert(p, e.clone());
                    prop_assert_eq!(prev, find(&model, p));
                    model.retain(|(mp, _)| *mp != p);
                    model.push((p, e));
                }
                FibOp::Remove(p) => {
                    let trie = fib.remove(p);
                    prop_assert_eq!(trie, find(&model, p));
                    model.retain(|(mp, _)| *mp != p);
                }
                FibOp::Lookup(bits) => {
                    let dst = Ipv4Addr::from(0x0a00_0000 | bits);
                    let got = fib.lookup(dst).map(|(p, e)| (p, e.clone()));
                    let want = model
                        .iter()
                        .filter(|(p, _)| p.contains(dst))
                        .max_by_key(|(p, _)| p.len())
                        .map(|(p, e)| (*p, e.clone()));
                    prop_assert_eq!(got, want);
                }
                FibOp::Get(p) => {
                    prop_assert_eq!(fib.get(p).cloned(), find(&model, p));
                }
                FibOp::FlushOrigin(origin) => {
                    let before = model.len();
                    model.retain(|(_, e)| e.origin != origin);
                    prop_assert_eq!(fib.flush_origin(origin), before - model.len());
                }
            }
            prop_assert_eq!(fib.len(), model.len());
        }
        let mut want = model;
        want.sort_by_key(|(p, _)| *p);
        let mut got: Vec<(Ipv4Prefix, RouteEntry)> =
            fib.iter().into_iter().map(|(p, e)| (p, e.clone())).collect();
        got.sort_by_key(|(p, _)| *p);
        prop_assert_eq!(got, want);
    }

    /// Fuzzing decode surfaces: random destination addresses against a
    /// random FIB never panic and always return covering prefixes.
    #[test]
    fn fib_lookup_result_covers(inserts in prop::collection::vec((prefixes(), 0u16..4), 1..40), probe in any::<u32>()) {
        let mut fib = Fib::new();
        for (p, port) in &inserts {
            fib.insert(*p, entry(*port));
        }
        let dst = Ipv4Addr::from(probe);
        if let Some((p, _)) = fib.lookup(dst) {
            prop_assert!(p.contains(dst), "{p} must cover {dst}");
        }
    }
}

fn tuples() -> impl Strategy<Value = FiveTuple> {
    (0u8..4, 0u8..4, 1000u16..1008, 2000u16..2004).prop_map(|(s, d, sp, dp)| {
        FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, s + 1),
            sp,
            Ipv4Addr::new(10, 0, 1, d + 1),
            dp,
        )
    })
}

fn matches() -> impl Strategy<Value = Match> {
    (tuples(), 0u8..4).prop_map(|(t, kind)| match kind {
        0 => Match::exact(t),
        1 => Match::dst_prefix(Ipv4Prefix::new(t.dst_ip, 24)),
        2 => Match {
            tp_dst: Some(t.dst_port),
            ..Match::default()
        },
        _ => Match::any(),
    })
}

proptest! {
    /// Flow-table lookup returns the highest-priority earliest-installed
    /// covering entry — verified against a naive scan.
    #[test]
    fn flow_table_matches_naive_model(
        entries in prop::collection::vec((matches(), 0u16..8), 0..30),
        probes in prop::collection::vec(tuples(), 1..20),
    ) {
        let mut table = FlowTable::new();
        // Naive model: keep (match, priority, cookie) in install order with
        // OF add-replaces-identical semantics.
        let mut model: Vec<(Match, u16, u64)> = Vec::new();
        for (i, (m, prio)) in entries.iter().enumerate() {
            let mut e = FlowEntry::new(*m, *prio, vec![Action::Output(PortId(1))]);
            e.cookie = i as u64;
            table.add(e, SimTime::ZERO);
            if let Some(slot) = model.iter_mut().find(|(mm, pp, _)| mm == m && pp == prio) {
                slot.2 = i as u64;
            } else {
                model.push((*m, *prio, i as u64));
            }
        }
        prop_assert_eq!(table.len(), model.len());
        for probe in probes {
            let key = FlowKey::ipv4(Some(PortId(0)), probe);
            let got = table.lookup(&key).map(|e| e.cookie);
            // Naive: stable sort by priority desc preserves install order.
            let mut sorted = model.clone();
            sorted.sort_by_key(|(_, p, _)| std::cmp::Reverse(*p));
            let want = sorted
                .iter()
                .find(|(m, _, _)| m.matches(&key))
                .map(|(_, _, c)| *c);
            prop_assert_eq!(got, want, "probe {}", probe);
        }
    }
}
