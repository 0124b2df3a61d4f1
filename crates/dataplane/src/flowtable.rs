//! An OpenFlow 1.0 style flow table: priority-ordered wildcard matching.
//!
//! Semantics follow the OF 1.0 spec closely enough for the demo's
//! controllers: highest priority wins; among equal priorities the earliest
//! installed entry wins; an absent field is a wildcard; `nw_src`/`nw_dst`
//! wildcards are prefix masks. Entries carry idle/hard timeouts and byte
//! counters (fed by the fluid model) so `FLOW_STATS` replies are meaningful
//! — Hedera's demand estimation depends on them.

use crate::hash::EcmpHasher;
use horse_net::addr::{Ipv4Prefix, MacAddr};
use horse_net::flow::FiveTuple;
use horse_net::topology::PortId;
use horse_sim::{SimDuration, SimTime};

/// The lookup key presented to a flow table: arrival port plus the flow's
/// header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKey {
    /// Port the packet (flow) arrived on; `None` at the source host's first
    /// switch lookup before entering the network is never used — keys built
    /// by the resolver always carry a port.
    pub in_port: Option<PortId>,
    /// Source MAC.
    pub dl_src: MacAddr,
    /// Destination MAC.
    pub dl_dst: MacAddr,
    /// EtherType.
    pub dl_type: u16,
    /// Transport 5-tuple.
    pub tuple: FiveTuple,
}

impl FlowKey {
    /// Key for an IPv4 flow with the given tuple arriving on `in_port`.
    pub fn ipv4(in_port: Option<PortId>, tuple: FiveTuple) -> FlowKey {
        FlowKey {
            in_port,
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_type: horse_net::packet::ETHERTYPE_IPV4,
            tuple,
        }
    }
}

/// An OF 1.0 match: `None`/default means wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Match {
    /// Match on the arrival port.
    pub in_port: Option<PortId>,
    /// Match on source MAC.
    pub dl_src: Option<MacAddr>,
    /// Match on destination MAC.
    pub dl_dst: Option<MacAddr>,
    /// Match on EtherType.
    pub dl_type: Option<u16>,
    /// Match on IP protocol.
    pub nw_proto: Option<u8>,
    /// Match on source IP under a prefix mask.
    pub nw_src: Option<Ipv4Prefix>,
    /// Match on destination IP under a prefix mask.
    pub nw_dst: Option<Ipv4Prefix>,
    /// Match on transport source port.
    pub tp_src: Option<u16>,
    /// Match on transport destination port.
    pub tp_dst: Option<u16>,
}

impl Match {
    /// The all-wildcard match.
    pub fn any() -> Match {
        Match::default()
    }

    /// An exact 5-tuple match (the rule the SDN ECMP and Hedera apps pin
    /// individual flows with).
    pub fn exact(tuple: FiveTuple) -> Match {
        Match {
            dl_type: Some(horse_net::packet::ETHERTYPE_IPV4),
            nw_proto: Some(tuple.proto.number()),
            nw_src: Some(Ipv4Prefix::host(tuple.src_ip)),
            nw_dst: Some(Ipv4Prefix::host(tuple.dst_ip)),
            tp_src: Some(tuple.src_port),
            tp_dst: Some(tuple.dst_port),
            ..Match::default()
        }
    }

    /// A destination-prefix match (proactive L3-style rules).
    pub fn dst_prefix(prefix: Ipv4Prefix) -> Match {
        Match {
            dl_type: Some(horse_net::packet::ETHERTYPE_IPV4),
            nw_dst: Some(prefix),
            ..Match::default()
        }
    }

    /// Does this match cover `key`?
    pub fn matches(&self, key: &FlowKey) -> bool {
        if let Some(p) = self.in_port {
            if key.in_port != Some(p) {
                return false;
            }
        }
        if let Some(m) = self.dl_src {
            if key.dl_src != m {
                return false;
            }
        }
        if let Some(m) = self.dl_dst {
            if key.dl_dst != m {
                return false;
            }
        }
        if let Some(t) = self.dl_type {
            if key.dl_type != t {
                return false;
            }
        }
        if let Some(p) = self.nw_proto {
            if key.tuple.proto.number() != p {
                return false;
            }
        }
        if let Some(pre) = self.nw_src {
            if !pre.contains(key.tuple.src_ip) {
                return false;
            }
        }
        if let Some(pre) = self.nw_dst {
            if !pre.contains(key.tuple.dst_ip) {
                return false;
            }
        }
        if let Some(p) = self.tp_src {
            if key.tuple.src_port != p {
                return false;
            }
        }
        if let Some(p) = self.tp_dst {
            if key.tuple.dst_port != p {
                return false;
            }
        }
        true
    }
}

/// What to do with a matching flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Forward out a port.
    Output(PortId),
    /// Punt to the SDN controller (PACKET_IN).
    Controller,
    /// Hash over a set of candidate ports (OF 1.0 has no group tables; this
    /// models switch-local ECMP the way fs-sdn style simulators do). The
    /// ports live in the owning entry's `ecmp_ports`.
    EcmpHash,
    /// Drop.
    Drop,
}

/// One table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntry {
    /// Match condition.
    pub matcher: Match,
    /// Priority; higher wins.
    pub priority: u16,
    /// Action list (first actionable item wins in this model).
    pub actions: Vec<Action>,
    /// Candidate ports for [`Action::EcmpHash`].
    pub ecmp_ports: Vec<PortId>,
    /// Opaque controller cookie.
    pub cookie: u64,
    /// Remove after this long without traffic (zero = never).
    pub idle_timeout: SimDuration,
    /// Remove this long after installation (zero = never).
    pub hard_timeout: SimDuration,
    /// Installation time.
    pub installed: SimTime,
    /// Last time traffic matched.
    pub last_hit: SimTime,
    /// Bytes accounted to this entry (fed from the fluid model).
    pub byte_count: u64,
    /// Flows (packets, in OF terms) accounted to this entry.
    pub packet_count: u64,
}

impl FlowEntry {
    /// A new entry with zeroed counters.
    pub fn new(matcher: Match, priority: u16, actions: Vec<Action>) -> FlowEntry {
        FlowEntry {
            matcher,
            priority,
            actions,
            ecmp_ports: Vec::new(),
            cookie: 0,
            idle_timeout: SimDuration::ZERO,
            hard_timeout: SimDuration::ZERO,
            installed: SimTime::ZERO,
            last_hit: SimTime::ZERO,
            byte_count: 0,
            packet_count: 0,
        }
    }

    /// Resolves this entry's forwarding decision for `tuple`. Only the
    /// first action is consulted: Horse's pipeline is single-action.
    pub fn decide(&self, tuple: &FiveTuple, hasher: &EcmpHasher) -> Action {
        match self.actions.first() {
            Some(Action::EcmpHash) if !self.ecmp_ports.is_empty() => {
                let idx = hasher.select(tuple, self.ecmp_ports.len());
                Action::Output(self.ecmp_ports[idx])
            }
            Some(Action::EcmpHash) | None => Action::Drop,
            Some(other) => *other,
        }
    }
}

/// A priority-ordered flow table.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs an entry at `now`. OF `ADD` semantics: an existing entry
    /// with identical match and priority is replaced (counters reset).
    pub fn add(&mut self, mut entry: FlowEntry, now: SimTime) {
        entry.installed = now;
        entry.last_hit = now;
        if let Some(pos) = self
            .entries
            .iter()
            .position(|e| e.matcher == entry.matcher && e.priority == entry.priority)
        {
            self.entries[pos] = entry;
            return;
        }
        // Keep sorted: priority desc, then installation order (stable).
        let pos = self
            .entries
            .partition_point(|e| e.priority >= entry.priority);
        self.entries.insert(pos, entry);
    }

    /// Strict delete: removes the entry with this exact match and priority.
    pub fn delete_strict(&mut self, matcher: &Match, priority: u16) -> Option<FlowEntry> {
        let pos = self
            .entries
            .iter()
            .position(|e| &e.matcher == matcher && e.priority == priority)?;
        Some(self.entries.remove(pos))
    }

    /// Non-strict delete: removes every entry whose match equals `matcher`
    /// regardless of priority. Returns how many were removed.
    pub fn delete_matching(&mut self, matcher: &Match) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| &e.matcher != matcher);
        before - self.entries.len()
    }

    /// Looks up the highest-priority entry covering `key`.
    pub fn lookup(&self, key: &FlowKey) -> Option<&FlowEntry> {
        self.entries.iter().find(|e| e.matcher.matches(key))
    }

    /// Mutable lookup (for counter updates).
    pub fn lookup_mut(&mut self, key: &FlowKey) -> Option<&mut FlowEntry> {
        self.entries.iter_mut().find(|e| e.matcher.matches(key))
    }

    /// Accounts `bytes` of traffic matching `key` at `now`.
    pub fn account(&mut self, key: &FlowKey, bytes: u64, now: SimTime) {
        if let Some(e) = self.lookup_mut(key) {
            e.byte_count += bytes;
            e.packet_count += 1;
            e.last_hit = now;
        }
    }

    /// Removes entries whose idle or hard timeout has expired at `now`,
    /// returning them (they become `FLOW_REMOVED` messages upstream).
    pub fn expire(&mut self, now: SimTime) -> Vec<FlowEntry> {
        let mut expired = Vec::new();
        self.entries.retain(|e| {
            let hard =
                !e.hard_timeout.is_zero() && now.duration_since(e.installed) >= e.hard_timeout;
            let idle =
                !e.idle_timeout.is_zero() && now.duration_since(e.last_hit) >= e.idle_timeout;
            if hard || idle {
                expired.push(e.clone());
                false
            } else {
                true
            }
        });
        expired
    }

    /// The earliest instant any entry can expire: the min over entries of
    /// `installed + hard_timeout` and `last_hit + idle_timeout` (zero
    /// timeouts never expire). `None` when no entry carries a timeout.
    /// An expiry *index* over tables built on this makes timeout sweeps
    /// event-driven: a sweep is only needed when this deadline is reached,
    /// not every engine step.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.entries
            .iter()
            .filter_map(|e| {
                let hard = (!e.hard_timeout.is_zero()).then(|| e.installed + e.hard_timeout);
                let idle = (!e.idle_timeout.is_zero()).then(|| e.last_hit + e.idle_timeout);
                match (hard, idle) {
                    (Some(h), Some(i)) => Some(h.min(i)),
                    (h, i) => h.or(i),
                }
            })
            .min()
    }

    /// All entries, highest priority first.
    pub fn entries(&self) -> &[FlowEntry] {
        &self.entries
    }

    /// Mutable entries (stats feeding).
    pub fn entries_mut(&mut self) -> &mut [FlowEntry] {
        &mut self.entries
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashMode;
    use std::net::Ipv4Addr;

    fn tuple() -> FiveTuple {
        FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            5000,
            Ipv4Addr::new(10, 0, 1, 1),
            80,
        )
    }

    fn key() -> FlowKey {
        FlowKey::ipv4(Some(PortId(1)), tuple())
    }

    #[test]
    fn exact_match_hits_and_misses() {
        let m = Match::exact(tuple());
        assert!(m.matches(&key()));
        let mut other = tuple();
        other.src_port = 5001;
        assert!(!m.matches(&FlowKey::ipv4(Some(PortId(1)), other)));
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(Match::any().matches(&key()));
    }

    #[test]
    fn prefix_match_on_dst() {
        let m = Match::dst_prefix("10.0.1.0/24".parse().unwrap());
        assert!(m.matches(&key()));
        let mut other = tuple();
        other.dst_ip = Ipv4Addr::new(10, 0, 2, 1);
        assert!(!m.matches(&FlowKey::ipv4(None, other)));
    }

    #[test]
    fn in_port_match() {
        let m = Match {
            in_port: Some(PortId(1)),
            ..Match::default()
        };
        assert!(m.matches(&key()));
        assert!(!m.matches(&FlowKey::ipv4(Some(PortId(2)), tuple())));
        assert!(!m.matches(&FlowKey::ipv4(None, tuple())));
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new();
        t.add(
            FlowEntry::new(Match::any(), 1, vec![Action::Drop]),
            SimTime::ZERO,
        );
        t.add(
            FlowEntry::new(Match::exact(tuple()), 100, vec![Action::Output(PortId(3))]),
            SimTime::ZERO,
        );
        let e = t.lookup(&key()).unwrap();
        assert_eq!(e.actions[0], Action::Output(PortId(3)));
    }

    #[test]
    fn equal_priority_first_installed_wins() {
        let mut t = FlowTable::new();
        let m1 = Match {
            tp_dst: Some(80),
            ..Match::default()
        };
        let m2 = Match {
            tp_src: Some(5000),
            ..Match::default()
        };
        t.add(
            FlowEntry::new(m1, 10, vec![Action::Output(PortId(1))]),
            SimTime::ZERO,
        );
        t.add(
            FlowEntry::new(m2, 10, vec![Action::Output(PortId(2))]),
            SimTime::ZERO,
        );
        let e = t.lookup(&key()).unwrap();
        assert_eq!(e.actions[0], Action::Output(PortId(1)));
    }

    #[test]
    fn add_replaces_same_match_and_priority() {
        let mut t = FlowTable::new();
        let m = Match::exact(tuple());
        t.add(
            FlowEntry::new(m, 5, vec![Action::Output(PortId(1))]),
            SimTime::ZERO,
        );
        t.add(
            FlowEntry::new(m, 5, vec![Action::Output(PortId(2))]),
            SimTime::ZERO,
        );
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.lookup(&key()).unwrap().actions[0],
            Action::Output(PortId(2))
        );
    }

    #[test]
    fn strict_and_nonstrict_delete() {
        let mut t = FlowTable::new();
        let m = Match::exact(tuple());
        t.add(FlowEntry::new(m, 5, vec![Action::Drop]), SimTime::ZERO);
        t.add(FlowEntry::new(m, 9, vec![Action::Drop]), SimTime::ZERO);
        assert!(t.delete_strict(&m, 5).is_some());
        assert_eq!(t.len(), 1);
        assert_eq!(t.delete_matching(&m), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn miss_returns_none() {
        let t = FlowTable::new();
        assert!(t.lookup(&key()).is_none());
    }

    #[test]
    fn hard_timeout_expires() {
        let mut t = FlowTable::new();
        let mut e = FlowEntry::new(Match::any(), 1, vec![Action::Drop]);
        e.hard_timeout = SimDuration::from_secs(5);
        t.add(e, SimTime::ZERO);
        assert!(t.expire(SimTime::from_secs(4)).is_empty());
        let gone = t.expire(SimTime::from_secs(5));
        assert_eq!(gone.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn idle_timeout_refreshed_by_traffic() {
        let mut t = FlowTable::new();
        let mut e = FlowEntry::new(Match::any(), 1, vec![Action::Drop]);
        e.idle_timeout = SimDuration::from_secs(5);
        t.add(e, SimTime::ZERO);
        t.account(&key(), 1000, SimTime::from_secs(4));
        assert!(
            t.expire(SimTime::from_secs(8)).is_empty(),
            "hit at t=4 keeps it"
        );
        let gone = t.expire(SimTime::from_secs(9));
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].byte_count, 1000);
    }

    #[test]
    fn next_expiry_tracks_min_over_timeouts() {
        let mut t = FlowTable::new();
        assert_eq!(t.next_expiry(), None);
        let mut permanent = FlowEntry::new(Match::any(), 1, vec![Action::Drop]);
        permanent.priority = 1;
        t.add(permanent, SimTime::ZERO);
        assert_eq!(t.next_expiry(), None, "zero timeouts never expire");
        let mut idle = FlowEntry::new(Match::exact(tuple()), 2, vec![Action::Drop]);
        idle.idle_timeout = SimDuration::from_secs(5);
        t.add(idle, SimTime::from_secs(1));
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(6)));
        let hard = Match {
            tp_dst: Some(99),
            ..Match::default()
        };
        let mut hard_e = FlowEntry::new(hard, 3, vec![Action::Drop]);
        hard_e.hard_timeout = SimDuration::from_secs(3);
        t.add(hard_e, SimTime::from_secs(1));
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(4)));
        // A hit pushes the idle deadline out but not the hard one.
        t.account(&key(), 10, SimTime::from_secs(3));
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(4)));
        let gone = t.expire(SimTime::from_secs(4));
        assert_eq!(gone.len(), 1);
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(8)));
    }

    #[test]
    fn ecmp_action_resolves_to_port() {
        let hasher = EcmpHasher::new(HashMode::FiveTuple, 3);
        let mut e = FlowEntry::new(Match::any(), 1, vec![Action::EcmpHash]);
        e.ecmp_ports = vec![PortId(1), PortId(2), PortId(3)];
        match e.decide(&tuple(), &hasher) {
            Action::Output(p) => assert!(e.ecmp_ports.contains(&p)),
            other => panic!("expected Output, got {other:?}"),
        }
        // Same tuple, same choice.
        assert_eq!(e.decide(&tuple(), &hasher), e.decide(&tuple(), &hasher));
    }

    #[test]
    fn ecmp_with_no_ports_drops() {
        let hasher = EcmpHasher::new(HashMode::FiveTuple, 3);
        let e = FlowEntry::new(Match::any(), 1, vec![Action::EcmpHash]);
        assert_eq!(e.decide(&tuple(), &hasher), Action::Drop);
    }

    #[test]
    fn empty_actions_drop() {
        let hasher = EcmpHasher::new(HashMode::FiveTuple, 3);
        let e = FlowEntry::new(Match::any(), 1, vec![]);
        assert_eq!(e.decide(&tuple(), &hasher), Action::Drop);
    }
}
