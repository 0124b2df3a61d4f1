//! The Al-Fares k-ary fat-tree (SIGCOMM'08), the demo's topology.
//!
//! For `k` pods (k even): each pod has k/2 edge (ToR) and k/2 aggregation
//! switches, there are (k/2)² core switches, and every edge switch serves
//! k/2 hosts — k³/4 hosts in total. Addressing follows the paper:
//! pod switches are `10.pod.switch.1`, core switches `10.k.j.i`, and hosts
//! `10.pod.edge.2+n` inside the edge's `10.pod.edge.0/24` subnet.
//!
//! The demo runs this topology in two flavors: all switches as OpenFlow
//! datapaths (SDN ECMP / Hedera) or all switches as BGP routers
//! ([`SwitchRole::BgpRouter`]), for which [`FatTree::bgp_setups`] emits
//! per-router speaker configurations.

use horse_bgp::session::{PeerConfig, TimerConfig};
use horse_bgp::speaker::BgpConfig;
use horse_net::addr::Ipv4Prefix;
use horse_net::topology::{LinkId, NodeId, PortId, Topology};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// How the fat-tree's switching elements participate in the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchRole {
    /// Every switch is an OpenFlow datapath managed by an SDN controller.
    OpenFlow,
    /// Every switch is an IP router running an emulated BGP daemon.
    BgpRouter,
}

/// Everything a BGP router in the fat-tree needs: its speaker config and
/// the mapping from neighbor link addresses to local output ports (used by
/// the Connection Manager to turn RIB next hops into FIB ports).
#[derive(Debug, Clone)]
pub struct BgpNodeSetup {
    /// Speaker configuration (ASN, peers, originated networks).
    pub config: BgpConfig,
    /// Neighbor address → local port.
    pub addr_to_port: BTreeMap<Ipv4Addr, PortId>,
    /// Local subnet(s) directly attached (host-facing), with their ports.
    pub connected: Vec<(Ipv4Prefix, PortId)>,
}

/// A built fat-tree.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Pod count (the paper's 4, 6, 8).
    pub k: usize,
    /// Control-plane role the switches were built with.
    pub role: SwitchRole,
    /// The graph, behind an [`Arc`] so experiments (and parallel sweep
    /// workers) share one immutable structure instead of deep-cloning it
    /// per run. Mutating call sites clone out of the `Arc` explicitly.
    pub topo: Arc<Topology>,
    /// All hosts, in (pod, edge, index) order.
    pub hosts: Vec<NodeId>,
    /// Edge (ToR) switches, in (pod, index) order.
    pub edges: Vec<NodeId>,
    /// Aggregation switches, in (pod, index) order.
    pub aggs: Vec<NodeId>,
    /// Core switches, row-major over the (k/2)×(k/2) grid.
    pub cores: Vec<NodeId>,
    /// Each edge switch's host subnet.
    pub host_subnets: BTreeMap<NodeId, Ipv4Prefix>,
    /// Link-local /30-style addresses per inter-switch link: (a-side, b-side).
    pub link_addrs: BTreeMap<LinkId, (Ipv4Addr, Ipv4Addr)>,
}

impl FatTree {
    /// Builds a k-ary fat-tree. `k` must be even and ≥ 2. All links get
    /// `link_bps` capacity (the demo uses 1 Gbps) and `delay_ns` latency.
    pub fn build(k: usize, role: SwitchRole, link_bps: f64, delay_ns: u64) -> FatTree {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree needs even k >= 2, got {k}"
        );
        let half = k / 2;
        let mut topo = Topology::new();
        let mut hosts = Vec::new();
        let mut edges = Vec::new();
        let mut aggs = Vec::new();
        let mut cores = Vec::new();
        let mut host_subnets = BTreeMap::new();
        let mut link_addrs = BTreeMap::new();

        let add_switch = |topo: &mut Topology, name: String, ip: Ipv4Addr| match role {
            SwitchRole::OpenFlow => topo.add_switch(name, ip),
            SwitchRole::BgpRouter => topo.add_router(name, ip),
        };

        // Core switches: 10.k.j.i for j,i in 1..=k/2.
        for j in 1..=half {
            for i in 1..=half {
                let ip = Ipv4Addr::new(10, k as u8, j as u8, i as u8);
                cores.push(add_switch(&mut topo, format!("core-{j}-{i}"), ip));
            }
        }
        // Pods.
        for pod in 0..k {
            // Edge switches 10.pod.s.1 (s = 0..half), agg 10.pod.s.1
            // (s = half..k).
            for s in 0..half {
                let ip = Ipv4Addr::new(10, pod as u8, s as u8, 1);
                edges.push(add_switch(&mut topo, format!("p{pod}-edge{s}"), ip));
            }
            for s in half..k {
                let ip = Ipv4Addr::new(10, pod as u8, s as u8, 1);
                aggs.push(add_switch(&mut topo, format!("p{pod}-agg{}", s - half), ip));
            }
            // Hosts under each edge switch: 10.pod.edge.(2+n).
            for e in 0..half {
                let edge = edges[pod * half + e];
                let subnet = Ipv4Prefix::new(Ipv4Addr::new(10, pod as u8, e as u8, 0), 24);
                host_subnets.insert(edge, subnet);
                for n in 0..half {
                    let ip = Ipv4Addr::new(10, pod as u8, e as u8, 2 + n as u8);
                    let h = topo.add_host(format!("p{pod}-e{e}-h{n}"), ip, subnet);
                    hosts.push(h);
                    topo.add_link(h, edge, link_bps, delay_ns);
                }
            }
            // Edge ↔ agg full bipartite within the pod.
            for e in 0..half {
                for a in 0..half {
                    let edge = edges[pod * half + e];
                    let agg = aggs[pod * half + a];
                    let (lid, ..) = topo.add_link(edge, agg, link_bps, delay_ns);
                    link_addrs.insert(lid, Self::p2p_addrs(lid));
                }
            }
            // Agg ↔ core: agg `a` connects to cores in row `a`.
            for a in 0..half {
                let agg = aggs[pod * half + a];
                for i in 0..half {
                    let core = cores[a * half + i];
                    let (lid, ..) = topo.add_link(agg, core, link_bps, delay_ns);
                    link_addrs.insert(lid, Self::p2p_addrs(lid));
                }
            }
        }
        FatTree {
            k,
            role,
            topo: Arc::new(topo),
            hosts,
            edges,
            aggs,
            cores,
            host_subnets,
            link_addrs,
        }
    }

    /// Deterministic /30-style point-to-point addresses for an
    /// inter-switch link, out of 172.16/12 so they never collide with the
    /// 10/8 data addresses.
    fn p2p_addrs(lid: LinkId) -> (Ipv4Addr, Ipv4Addr) {
        let base: u32 = u32::from(Ipv4Addr::new(172, 16, 0, 0)) + 4 * lid.0;
        (Ipv4Addr::from(base + 1), Ipv4Addr::from(base + 2))
    }

    /// The address a node uses on an inter-switch link (panics if the node
    /// is not an endpoint — a builder bug).
    pub fn link_addr_of(&self, lid: LinkId, node: NodeId) -> Ipv4Addr {
        let link = self.topo.link(lid);
        let (a, b) = self.link_addrs[&lid];
        if link.a.node == node {
            a
        } else {
            assert_eq!(link.b.node, node, "node not on link");
            b
        }
    }

    /// Number of pods `k` → expected host count k³/4.
    pub fn expected_hosts(k: usize) -> usize {
        k * k * k / 4
    }

    /// Synthesizes per-router BGP configurations (only meaningful when the
    /// tree was built with [`SwitchRole::BgpRouter`]).
    ///
    /// AS numbering: private range, `64512 + switch_index` where switches
    /// are numbered edges, aggs, cores in construction order — every switch
    /// gets a distinct AS so all equal-hop paths have equal AS-path length
    /// and ECMP multipath applies. The 16-bit private range (64512–65534)
    /// holds 1023 ASNs, so this panics above 1023 switches (k ≥ 30).
    pub fn bgp_setups(&self, timers: TimerConfig) -> BTreeMap<NodeId, BgpNodeSetup> {
        let switches = self.edges.len() + self.aggs.len() + self.cores.len();
        assert!(
            switches <= 1023,
            "private 16-bit ASN pool exhausted: k={} has {switches} switches, at most 1023 fit",
            self.k
        );
        let mut asn_of: BTreeMap<NodeId, u16> = BTreeMap::new();
        for (i, n) in self
            .edges
            .iter()
            .chain(self.aggs.iter())
            .chain(self.cores.iter())
            .enumerate()
        {
            asn_of.insert(*n, 64512 + i as u16);
        }
        let mut out = BTreeMap::new();
        for (&node, &asn) in &asn_of {
            let mut peers = Vec::new();
            let mut addr_to_port = BTreeMap::new();
            let mut connected = Vec::new();
            for (lid, port, neighbor) in self.topo.neighbors(node) {
                if let Some(&peer_as) = asn_of.get(&neighbor) {
                    let local_addr = self.link_addr_of(lid, node);
                    let peer_addr = self.link_addr_of(lid, neighbor);
                    peers.push(PeerConfig {
                        peer_addr,
                        local_addr,
                        remote_as: peer_as,
                    });
                    addr_to_port.insert(peer_addr, port);
                } else {
                    // Host-facing port: install a /32 adjacency for the
                    // attached host (the kernel's directly-connected
                    // neighbor entry), so each host under the edge switch
                    // is reached through its own port.
                    let host_ip = self.topo.node(neighbor).ip;
                    connected.push((Ipv4Prefix::host(host_ip), port));
                }
            }
            connected.sort();
            connected.dedup();
            let networks = self
                .host_subnets
                .get(&node)
                .map(|s| vec![*s])
                .unwrap_or_default();
            out.insert(
                node,
                BgpNodeSetup {
                    config: BgpConfig {
                        asn,
                        router_id: self.topo.node(node).ip,
                        timers,
                        peers,
                        networks,
                        multipath: true,
                        policies: Default::default(),
                    },
                    addr_to_port,
                    connected,
                },
            );
        }
        out
    }

    /// Datapath id of a switch (for OpenFlow scenarios): its node id.
    pub fn dpid(&self, node: NodeId) -> u64 {
        u64::from(node.0)
    }

    /// All switch nodes (edge + agg + core).
    pub fn switches(&self) -> Vec<NodeId> {
        self.edges
            .iter()
            .chain(self.aggs.iter())
            .chain(self.cores.iter())
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_net::topology::NodeKind;
    use horse_sim::SimDuration;

    fn tree(k: usize) -> FatTree {
        FatTree::build(k, SwitchRole::OpenFlow, 1e9, 1000)
    }

    #[test]
    fn element_counts_match_theory() {
        for k in [2usize, 4, 6, 8] {
            let ft = tree(k);
            let half = k / 2;
            assert_eq!(ft.hosts.len(), k * k * k / 4, "hosts for k={k}");
            assert_eq!(ft.edges.len(), k * half, "edges for k={k}");
            assert_eq!(ft.aggs.len(), k * half, "aggs for k={k}");
            assert_eq!(ft.cores.len(), half * half, "cores for k={k}");
            // Links: host-edge (k^3/4) + edge-agg (k * (k/2)^2) + agg-core
            // (k * (k/2)^2).
            let expect_links = k * k * k / 4 + 2 * k * half * half;
            assert_eq!(ft.topo.link_count(), expect_links, "links for k={k}");
        }
    }

    #[test]
    fn k4_has_16_hosts() {
        assert_eq!(FatTree::expected_hosts(4), 16);
        assert_eq!(tree(4).hosts.len(), 16);
    }

    #[test]
    fn host_addressing_follows_paper() {
        let ft = tree(4);
        let h = ft.topo.find("p2-e1-h0").unwrap();
        assert_eq!(ft.topo.node(h).ip, Ipv4Addr::new(10, 2, 1, 2));
        let edge = ft.topo.find("p2-edge1").unwrap();
        assert_eq!(
            ft.host_subnets[&edge],
            "10.2.1.0/24".parse::<Ipv4Prefix>().unwrap()
        );
    }

    #[test]
    fn all_hosts_reach_all_hosts() {
        let ft = tree(4);
        let a = ft.hosts[0];
        for &b in &ft.hosts[1..] {
            assert!(ft.topo.hop_distance(a, b).is_some(), "{a} -> {b}");
        }
    }

    #[test]
    fn inter_pod_paths_have_ecmp() {
        let ft = tree(4);
        // Hosts in different pods: (k/2)^2 = 4 shortest paths of 6 hops.
        let a = ft.topo.find("p0-e0-h0").unwrap();
        let b = ft.topo.find("p1-e0-h0").unwrap();
        let paths = ft.topo.all_shortest_paths(a, b);
        assert_eq!(paths.len(), 4);
        for p in &paths {
            assert_eq!(p.len(), 6);
        }
        // Same-pod, different edge: k/2 = 2 paths of 4 hops.
        let c = ft.topo.find("p0-e1-h0").unwrap();
        let paths = ft.topo.all_shortest_paths(a, c);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.len(), 4);
        }
        // Same edge: 1 path of 2 hops.
        let d = ft.topo.find("p0-e0-h1").unwrap();
        assert_eq!(
            ft.topo.all_shortest_paths(a, d),
            vec![vec![
                ft.topo.link_between(a, ft.edges[0]).unwrap().0,
                ft.topo.link_between(ft.edges[0], d).unwrap().0,
            ]]
        );
    }

    #[test]
    fn node_kinds_follow_role() {
        let of = FatTree::build(4, SwitchRole::OpenFlow, 1e9, 0);
        assert_eq!(of.topo.nodes_of_kind(NodeKind::Switch).len(), 20);
        assert_eq!(of.topo.nodes_of_kind(NodeKind::Router).len(), 0);
        let bgp = FatTree::build(4, SwitchRole::BgpRouter, 1e9, 0);
        assert_eq!(bgp.topo.nodes_of_kind(NodeKind::Router).len(), 20);
        assert_eq!(bgp.topo.nodes_of_kind(NodeKind::Switch).len(), 0);
    }

    fn bgp_tree_asns(k: usize) -> Vec<u16> {
        let ft = FatTree::build(k, SwitchRole::BgpRouter, 1e9, 0);
        let setups = ft.bgp_setups(TimerConfig {
            hold_time: SimDuration::from_secs(9),
            connect_retry: SimDuration::from_secs(1),
            mrai: SimDuration::ZERO,
        });
        setups.values().map(|s| s.config.asn).collect()
    }

    #[test]
    fn largest_bgp_tree_stays_in_the_private_asn_range() {
        // k=28: 980 switches, the largest even k whose ASNs all fit.
        let asns = bgp_tree_asns(28);
        let distinct: std::collections::BTreeSet<u16> = asns.iter().copied().collect();
        assert_eq!(distinct.len(), 980);
        assert!(asns.iter().all(|&a| (64512..65535).contains(&a)));
    }

    #[test]
    #[should_panic(expected = "k=30")]
    fn bgp_tree_past_the_private_asn_range_panics() {
        // k=30: 1125 switches would wrap past 65535 to ASN 0.
        bgp_tree_asns(30);
    }

    #[test]
    fn bgp_setups_are_consistent() {
        let ft = FatTree::build(4, SwitchRole::BgpRouter, 1e9, 0);
        let setups = ft.bgp_setups(TimerConfig {
            hold_time: SimDuration::from_secs(9),
            connect_retry: SimDuration::from_secs(1),
            mrai: SimDuration::ZERO,
        });
        assert_eq!(setups.len(), 20);
        // Distinct ASNs.
        let mut asns: Vec<u16> = setups.values().map(|s| s.config.asn).collect();
        asns.sort_unstable();
        asns.dedup();
        assert_eq!(asns.len(), 20);
        // Every peering is symmetric: if a lists b, b lists a with swapped
        // addresses.
        for (node, setup) in &setups {
            for peer in &setup.config.peers {
                // Peer addresses are link addresses, not node IPs — resolve
                // the neighbor through the port map.
                let port = setup.addr_to_port[&peer.peer_addr];
                let lid = ft.topo.link_at(*node, port).unwrap();
                let neighbor = ft.topo.link(lid).other(*node);
                let nsetup = &setups[&neighbor];
                assert!(
                    nsetup
                        .config
                        .peers
                        .iter()
                        .any(|p| p.peer_addr == peer.local_addr
                            && p.local_addr == peer.peer_addr
                            && p.remote_as == setup.config.asn),
                    "asymmetric peering {node} <-> {neighbor}"
                );
            }
        }
        // Edge switches originate exactly their host subnet; others none.
        for e in &ft.edges {
            assert_eq!(setups[e].config.networks.len(), 1);
            assert!(!setups[e].connected.is_empty());
        }
        for c in &ft.cores {
            assert!(setups[c].config.networks.is_empty());
        }
        // Peer counts: edge = k/2 aggs; agg = k/2 edges + k/2 cores;
        // core = k pods.
        for e in &ft.edges {
            assert_eq!(setups[e].config.peers.len(), 2);
        }
        for a in &ft.aggs {
            assert_eq!(setups[a].config.peers.len(), 4);
        }
        for c in &ft.cores {
            assert_eq!(setups[c].config.peers.len(), 4);
        }
    }

    #[test]
    fn link_addrs_unique() {
        let ft = FatTree::build(6, SwitchRole::BgpRouter, 1e9, 0);
        let mut seen = std::collections::HashSet::new();
        for (a, b) in ft.link_addrs.values() {
            assert!(seen.insert(*a), "{a} duplicated");
            assert!(seen.insert(*b), "{b} duplicated");
        }
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn odd_k_rejected() {
        FatTree::build(3, SwitchRole::OpenFlow, 1e9, 0);
    }
}
