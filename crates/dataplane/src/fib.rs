//! A longest-prefix-match forwarding table (binary trie) with ECMP
//! next-hop sets.
//!
//! The trie is bit-indexed on the IPv4 destination: each node has two
//! children (bit 0 / bit 1) and an optional route. Lookup walks at most 32
//! levels remembering the deepest route seen. Nodes live in a `Vec` arena;
//! removal clears the route but leaves structural nodes in place (tables in
//! these experiments are rewritten far more often than shrunk, and the arena
//! keeps the hot lookup path allocation-free).
//!
//! Routes are interned per FIB: a router forwards thousands of prefixes
//! through a handful of distinct next-hop sets, so each distinct
//! [`RouteEntry`] is stored once, ref-counted by the nodes that use it, and
//! a node is three `u32`s (12 B) — two child indexes and a route index.

use horse_net::addr::Ipv4Prefix;
use horse_net::topology::PortId;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Where a route came from. [`Fib::flush_origin`] drops routes by origin
/// (e.g. every BGP route on a session reset); dumps show it too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteOrigin {
    /// Directly connected subnet.
    Connected,
    /// Installed statically by the experiment script.
    Static,
    /// Learned from the emulated BGP daemon.
    Bgp,
}

/// One ECMP next hop: the local output port (and, for debugging, the
/// gateway address it corresponds to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NextHop {
    /// Output port on this node.
    pub port: PortId,
    /// The neighbor address this hop points at (informational).
    pub gateway: Ipv4Addr,
}

/// A routing entry: one or more equal-cost next hops.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RouteEntry {
    /// Equal-cost next hops, in deterministic (sorted) order.
    pub next_hops: Vec<NextHop>,
    /// Provenance.
    pub origin: RouteOrigin,
}

impl RouteEntry {
    /// Builds an entry, sorting hops for determinism and dropping duplicates.
    pub fn new(mut next_hops: Vec<NextHop>, origin: RouteOrigin) -> RouteEntry {
        next_hops.sort();
        next_hops.dedup();
        RouteEntry { next_hops, origin }
    }
}

/// "No child" and "no route" in a [`TrieNode`]. The root (node 0) is
/// nobody's child, and route references are 1-based.
const NONE: u32 = 0;

#[derive(Debug, Clone, Copy, Default)]
struct TrieNode {
    children: [u32; 2],
    /// A route reference into the FIB's [`EntryTable`].
    route: u32,
}

/// One interned entry and the number of nodes routing through it (0 =
/// on the free list).
#[derive(Debug, Clone)]
struct Interned {
    entry: RouteEntry,
    refs: u32,
}

/// Every distinct entry of one FIB, ref-counted by the trie nodes that
/// route through it. A route reference is 1 + the entry's slot index.
#[derive(Debug, Clone, Default)]
struct EntryTable {
    slots: Vec<Interned>,
    /// Entry → slot, for live entries only. Probed, never iterated.
    index: HashMap<RouteEntry, u32>,
    /// Dead slots, reused before the table grows.
    free: Vec<u32>,
    /// Sum of all refcounts: the number of installed routes.
    routes: usize,
}

impl EntryTable {
    fn get(&self, route: u32) -> &RouteEntry {
        &self.slots[(route - 1) as usize].entry
    }

    /// A reference to `entry`'s interned copy, counting one more route.
    fn intern(&mut self, entry: RouteEntry) -> u32 {
        self.routes += 1;
        if let Some(&i) = self.index.get(&entry) {
            self.slots[i as usize].refs += 1;
            return i + 1;
        }
        let slot = Interned {
            entry: entry.clone(),
            refs: 1,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(entry, i);
        i + 1
    }

    /// Drops one route from a reference; the entry when that was its last
    /// route (its slot is freed).
    fn unref(&mut self, route: u32) -> Option<RouteEntry> {
        self.routes -= 1;
        let i = route - 1;
        let slot = &mut self.slots[i as usize];
        slot.refs -= 1;
        if slot.refs > 0 {
            return None;
        }
        self.free.push(i);
        self.index.remove_entry(&slot.entry).map(|(entry, _)| entry)
    }

    /// [`EntryTable::unref`], copying the entry out when other routes
    /// still use it.
    fn release(&mut self, route: u32) -> RouteEntry {
        match self.unref(route) {
            Some(entry) => entry,
            None => self.get(route).clone(),
        }
    }
}

/// A longest-prefix-match FIB.
#[derive(Debug, Clone)]
pub struct Fib {
    nodes: Vec<TrieNode>,
    /// Boxed so a router's forwarding state stays as small as a switch's.
    entries: Box<EntryTable>,
}

impl Default for Fib {
    fn default() -> Self {
        Self::new()
    }
}

impl Fib {
    /// An empty FIB.
    pub fn new() -> Fib {
        Fib {
            nodes: vec![TrieNode::default()],
            entries: Box::default(),
        }
    }

    /// Number of installed routes.
    pub fn len(&self) -> usize {
        self.entries.routes
    }

    /// True if no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.routes == 0
    }

    /// Inserts (or replaces) the route for `prefix`. Returns the previous
    /// entry if one existed.
    pub fn insert(&mut self, prefix: Ipv4Prefix, entry: RouteEntry) -> Option<RouteEntry> {
        let idx = self.walk_to_or_create(prefix);
        let route = self.entries.intern(entry);
        let old = std::mem::replace(&mut self.nodes[idx].route, route);
        (old != NONE).then(|| self.entries.release(old))
    }

    /// Installs `entry` for `prefix`, returning true when the FIB changed
    /// (an equal route already installed is a no-op). Unlike
    /// [`Fib::insert`], never copies an entry out.
    pub fn install(&mut self, prefix: Ipv4Prefix, entry: RouteEntry) -> bool {
        let idx = self.walk_to_or_create(prefix);
        let old = self.nodes[idx].route;
        if old != NONE && self.entries.get(old) == &entry {
            return false;
        }
        self.nodes[idx].route = self.entries.intern(entry);
        if old != NONE {
            self.entries.unref(old);
        }
        true
    }

    /// Removes the route for `prefix`, returning it if present.
    pub fn remove(&mut self, prefix: Ipv4Prefix) -> Option<RouteEntry> {
        let old = self.take_route(prefix)?;
        Some(self.entries.release(old))
    }

    /// Removes the route for `prefix`, returning true when one was
    /// installed. Unlike [`Fib::remove`], never copies an entry out.
    pub fn uninstall(&mut self, prefix: Ipv4Prefix) -> bool {
        match self.take_route(prefix) {
            Some(old) => {
                self.entries.unref(old);
                true
            }
            None => false,
        }
    }

    /// The exact-match entry for `prefix`, if installed.
    pub fn get(&self, prefix: Ipv4Prefix) -> Option<&RouteEntry> {
        let idx = self.walk_to_ref(prefix)?;
        self.route_of(idx)
    }

    /// Longest-prefix-match lookup: the most specific entry covering `dst`.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<(Ipv4Prefix, &RouteEntry)> {
        let bits = u32::from(dst);
        let mut idx = 0u32;
        let mut best: Option<(u8, u32)> = (self.nodes[0].route != NONE).then_some((0u8, 0u32));
        for depth in 0..32u8 {
            let bit = ((bits >> (31 - depth)) & 1) as usize;
            let next = self.nodes[idx as usize].children[bit];
            if next == NONE {
                break;
            }
            idx = next;
            if self.nodes[idx as usize].route != NONE {
                best = Some((depth + 1, idx));
            }
        }
        best.map(|(len, idx)| {
            let entry = self.route_of(idx).expect("tracked");
            // Reconstruct the prefix from dst + len (host bits masked).
            (Ipv4Prefix::new(dst, len), entry)
        })
    }

    /// All installed `(prefix, entry)` pairs, in trie (lexicographic) order.
    pub fn iter(&self) -> Vec<(Ipv4Prefix, &RouteEntry)> {
        let mut out = Vec::with_capacity(self.len());
        self.collect(0, 0, 0, &mut out);
        out
    }

    /// Drops every route of a given origin (e.g. flush BGP routes on session
    /// reset), returning how many were removed.
    pub fn flush_origin(&mut self, origin: RouteOrigin) -> usize {
        let mut removed = 0;
        for node in &mut self.nodes {
            if node.route != NONE && self.entries.get(node.route).origin == origin {
                self.entries.unref(std::mem::replace(&mut node.route, NONE));
                removed += 1;
            }
        }
        removed
    }

    fn route_of(&self, idx: u32) -> Option<&RouteEntry> {
        let route = self.nodes[idx as usize].route;
        (route != NONE).then(|| self.entries.get(route))
    }

    /// Clears `prefix`'s route, returning the reference it held.
    fn take_route(&mut self, prefix: Ipv4Prefix) -> Option<u32> {
        let idx = self.walk_to_ref(prefix)? as usize;
        let old = std::mem::replace(&mut self.nodes[idx].route, NONE);
        (old != NONE).then_some(old)
    }

    fn collect<'a>(
        &'a self,
        idx: u32,
        acc: u32,
        depth: u8,
        out: &mut Vec<(Ipv4Prefix, &'a RouteEntry)>,
    ) {
        if let Some(route) = self.route_of(idx) {
            let addr = Ipv4Addr::from(if depth == 0 { 0 } else { acc << (32 - depth) });
            out.push((Ipv4Prefix::new(addr, depth), route));
        }
        for bit in 0..2u32 {
            let child = self.nodes[idx as usize].children[bit as usize];
            if child != NONE {
                self.collect(child, (acc << 1) | bit, depth + 1, out);
            }
        }
    }

    /// The node for `prefix`, creating the path to it as needed.
    fn walk_to_or_create(&mut self, prefix: Ipv4Prefix) -> usize {
        let bits = u32::from(prefix.network());
        let mut idx = 0usize;
        for depth in 0..prefix.len() {
            let bit = ((bits >> (31 - depth)) & 1) as usize;
            idx = match self.nodes[idx].children[bit] {
                NONE => {
                    let next = self.nodes.len() as u32;
                    self.nodes.push(TrieNode::default());
                    self.nodes[idx].children[bit] = next;
                    next as usize
                }
                next => next as usize,
            };
        }
        idx
    }

    fn walk_to_ref(&self, prefix: Ipv4Prefix) -> Option<u32> {
        let bits = u32::from(prefix.network());
        let mut idx = 0u32;
        for depth in 0..prefix.len() {
            let bit = ((bits >> (31 - depth)) & 1) as usize;
            idx = self.nodes[idx as usize].children[bit];
            if idx == NONE {
                return None;
            }
        }
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(port: u16) -> NextHop {
        NextHop {
            port: PortId(port),
            gateway: Ipv4Addr::UNSPECIFIED,
        }
    }

    fn entry(ports: &[u16]) -> RouteEntry {
        RouteEntry::new(ports.iter().map(|p| hop(*p)).collect(), RouteOrigin::Static)
    }

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn longest_prefix_wins() {
        let mut fib = Fib::new();
        fib.insert(p("10.0.0.0/8"), entry(&[1]));
        fib.insert(p("10.1.0.0/16"), entry(&[2]));
        fib.insert(p("10.1.2.0/24"), entry(&[3]));
        let (pre, e) = fib.lookup(Ipv4Addr::new(10, 1, 2, 3)).unwrap();
        assert_eq!(pre, p("10.1.2.0/24"));
        assert_eq!(e.next_hops[0].port, PortId(3));
        let (pre, e) = fib.lookup(Ipv4Addr::new(10, 1, 9, 9)).unwrap();
        assert_eq!(pre, p("10.1.0.0/16"));
        assert_eq!(e.next_hops[0].port, PortId(2));
        let (pre, _) = fib.lookup(Ipv4Addr::new(10, 200, 0, 1)).unwrap();
        assert_eq!(pre, p("10.0.0.0/8"));
        assert!(fib.lookup(Ipv4Addr::new(11, 0, 0, 1)).is_none());
    }

    #[test]
    fn default_route_catches_all() {
        let mut fib = Fib::new();
        fib.insert(Ipv4Prefix::DEFAULT, entry(&[7]));
        let (pre, e) = fib.lookup(Ipv4Addr::new(203, 0, 113, 1)).unwrap();
        assert_eq!(pre, Ipv4Prefix::DEFAULT);
        assert_eq!(e.next_hops[0].port, PortId(7));
    }

    #[test]
    fn insert_replaces_and_reports_old() {
        let mut fib = Fib::new();
        assert!(fib.insert(p("10.0.0.0/24"), entry(&[1])).is_none());
        let old = fib.insert(p("10.0.0.0/24"), entry(&[2])).unwrap();
        assert_eq!(old.next_hops[0].port, PortId(1));
        assert_eq!(fib.len(), 1);
    }

    #[test]
    fn remove_restores_shorter_match() {
        let mut fib = Fib::new();
        fib.insert(p("10.0.0.0/8"), entry(&[1]));
        fib.insert(p("10.1.0.0/16"), entry(&[2]));
        assert!(fib.remove(p("10.1.0.0/16")).is_some());
        let (pre, _) = fib.lookup(Ipv4Addr::new(10, 1, 0, 1)).unwrap();
        assert_eq!(pre, p("10.0.0.0/8"));
        assert!(fib.remove(p("10.1.0.0/16")).is_none(), "double remove");
        assert_eq!(fib.len(), 1);
    }

    #[test]
    fn ecmp_hops_sorted_and_deduped() {
        let e = RouteEntry::new(vec![hop(3), hop(1), hop(3), hop(2)], RouteOrigin::Bgp);
        let ports: Vec<u16> = e.next_hops.iter().map(|h| h.port.0).collect();
        assert_eq!(ports, vec![1, 2, 3]);
    }

    #[test]
    fn host_route_matches_single_address() {
        let mut fib = Fib::new();
        fib.insert(Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 5)), entry(&[9]));
        assert!(fib.lookup(Ipv4Addr::new(10, 0, 0, 5)).is_some());
        assert!(fib.lookup(Ipv4Addr::new(10, 0, 0, 6)).is_none());
    }

    #[test]
    fn iter_lists_all_routes() {
        let mut fib = Fib::new();
        let prefixes = ["0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24"];
        for (i, s) in prefixes.iter().enumerate() {
            fib.insert(p(s), entry(&[i as u16]));
        }
        let got: Vec<String> = fib.iter().iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(got.len(), 4);
        for s in prefixes {
            assert!(got.contains(&s.to_string()), "{s} missing from {got:?}");
        }
    }

    #[test]
    fn flush_origin_removes_only_that_origin() {
        let mut fib = Fib::new();
        fib.insert(
            p("10.0.0.0/24"),
            RouteEntry::new(vec![hop(1)], RouteOrigin::Connected),
        );
        fib.insert(
            p("10.0.1.0/24"),
            RouteEntry::new(vec![hop(2)], RouteOrigin::Bgp),
        );
        fib.insert(
            p("10.0.2.0/24"),
            RouteEntry::new(vec![hop(3)], RouteOrigin::Bgp),
        );
        assert_eq!(fib.flush_origin(RouteOrigin::Bgp), 2);
        assert_eq!(fib.len(), 1);
        assert!(fib.lookup(Ipv4Addr::new(10, 0, 0, 1)).is_some());
        assert!(fib.lookup(Ipv4Addr::new(10, 0, 1, 1)).is_none());
    }

    #[test]
    fn equal_entries_are_interned_once_and_freed_with_their_last_route() {
        assert_eq!(std::mem::size_of::<TrieNode>(), 12);
        assert!(std::mem::size_of::<Fib>() <= 4 * std::mem::size_of::<usize>());
        let mut fib = Fib::new();
        for i in 0..100u8 {
            assert!(fib.install(p(&format!("10.{i}.0.0/16")), entry(&[1])));
        }
        fib.insert(p("10.200.0.0/16"), entry(&[2]));
        assert_eq!(
            fib.entries.index.len(),
            2,
            "101 routes, two distinct entries"
        );
        assert!(!fib.install(p("10.7.0.0/16"), entry(&[1])), "same route");
        assert!(fib.install(p("10.7.0.0/16"), entry(&[2])));
        assert_eq!(fib.remove(p("10.200.0.0/16")), Some(entry(&[2])));
        assert!(fib.uninstall(p("10.7.0.0/16")));
        assert!(!fib.uninstall(p("10.7.0.0/16")));
        assert_eq!(
            fib.entries.index.len(),
            1,
            "port 2's entry lost its last route"
        );
        assert_eq!(fib.entries.free.len(), 1);
        fib.insert(p("10.201.0.0/16"), entry(&[3]));
        assert_eq!(fib.entries.slots.len(), 2, "the freed slot is reused");
        assert_eq!(fib.flush_origin(RouteOrigin::Static), 100);
        assert!(fib.is_empty() && fib.entries.index.is_empty());
    }

    #[test]
    fn get_is_exact_not_lpm() {
        let mut fib = Fib::new();
        fib.insert(p("10.0.0.0/8"), entry(&[1]));
        assert!(fib.get(p("10.0.0.0/8")).is_some());
        assert!(fib.get(p("10.0.0.0/16")).is_none());
    }
}
