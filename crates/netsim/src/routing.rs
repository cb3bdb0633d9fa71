//! Shortest-path routing with ECMP.
//!
//! For every (node, destination-host) pair the table answers with *all*
//! ports whose peer is one hop closer to the destination; a per-flow hash
//! picks among them, so a flow sticks to a single path (as ECMP does in
//! real fabrics).
//!
//! # One column per attachment switch
//!
//! A column is one BFS: the candidate ports of every node towards one root.
//! A host `h` with a single port hangs off one attachment node `S`, so every
//! path to `h` ends `… → S → h` and `dist(v, h) = dist(v, S) + 1` for every
//! `v ≠ h`. A node other than `S` and `h` therefore forwards towards `h`
//! exactly as it forwards towards `S` — same ports, same port order — and
//! `S` itself uses its one port to `h`. So the table stores a column per
//! attachment node, shared by every host behind it (64 columns, not 1024, on
//! `paper_xl_clos`), and each single-homed host keeps only `S`, a one-entry
//! row with `S`'s port to it, and whether that port is up. Hosts with any
//! other port count (which `TopologyBuilder::build` rejects, but
//! `Topology::nodes` is public and deserialisable) get a column rooted at
//! themselves. The attachment node need not be a switch: two hosts cabled to
//! each other root each other's column.
//!
//! The host link, down: a BFS from `h` starts by crossing `S → h`, so with
//! that direction down nothing reaches `h` and every node's candidate list
//! for it is empty. The shared column cannot say so (`S` is still reachable),
//! which is why the flag is per host. The `h → S` direction only matters for
//! what `h` sends, and that is in the columns: `h` is a leaf of every BFS.
//!
//! ECMP choices cannot move: `try_next_hop` indexes the candidate list with
//! `hash(flow) % len`, and the list for every (node, host) pair holds the
//! same ports in the same ascending order as one BFS per host would give
//! (the differential proptest in `tests/properties.rs` compares the two under
//! random link failures).
//!
//! # Storage
//!
//! All rows live in one CSR pair, `ports[offsets[r]..offsets[r + 1]]`: row
//! `c*n + v` holds node `v`'s candidates in column `c`, and after the
//! columns comes one row per single-homed host holding its attachment's port
//! to it, so a lookup is the same two loads whichever node asks and differs
//! only in the row number. Both vectors are reserved to their worst case at
//! build (`v` has at most `ports(v)` candidates per column), so a rebuild
//! after a link flap clears and refills them without allocating.

use crate::ids::{FlowId, NodeId, PortId};
use crate::topology::Topology;
use std::collections::VecDeque;

/// How the table reaches one destination node.
#[derive(Debug, Clone, Copy)]
struct Dest {
    /// First row of the destination's column.
    base: u32,
    /// The node whose row is `attach_row` instead of its row in the column:
    /// a single-homed host's attachment node; `NO_NODE` for a host with a
    /// column rooted at itself.
    attach: u32,
    /// The one-entry row holding `attach`'s port to the host.
    attach_row: u32,
    /// False for a node that is not a host, and for a single-homed host
    /// whose attachment's port to it was down at the last rebuild.
    reachable: bool,
}

/// No node has this id: [`RouteTable::build_filtered`] asserts it.
const NO_NODE: u32 = u32::MAX;

/// Size of a [`RouteTable`], for tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteFootprint {
    /// BFS roots the table stores a column for.
    pub columns: usize,
    /// Heap bytes reserved by the two CSR vectors.
    pub bytes: usize,
}

/// Precomputed equal-cost routes.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Indexed by destination `NodeId`.
    dest: Vec<Dest>,
    /// Root node of each column.
    roots: Vec<NodeId>,
    /// CSR row starts (see module docs).
    offsets: Vec<u32>,
    /// CSR payload: candidate egress ports, ascending within a row.
    ports: Vec<PortId>,
    /// BFS distance scratch.
    dist: Vec<u32>,
    /// BFS frontier scratch.
    bfs: VecDeque<NodeId>,
}

impl RouteTable {
    /// Build the table for `topo` with all links up.
    pub fn build(topo: &Topology) -> Self {
        Self::build_filtered(topo, |_, _| true)
    }

    /// Build the table considering only links for which `is_up` returns
    /// true (queried once per direction). Used to recompute routing after
    /// link failures.
    pub fn build_filtered(topo: &Topology, is_up: impl Fn(NodeId, PortId) -> bool) -> Self {
        let n = topo.nodes.len();
        let total_ports: usize = topo.nodes.iter().map(|node| node.ports.len()).sum();
        let unrouted = Dest {
            base: 0,
            attach: NO_NODE,
            attach_row: 0,
            reachable: false,
        };
        let mut dest = vec![unrouted; n];
        let mut roots = Vec::new();
        let mut col_of_root = vec![usize::MAX; n];
        let mut host_links = 0usize;
        for &h in topo.hosts() {
            let ports = &topo.node(h).ports;
            let single_homed = ports.len() == 1;
            let root = if single_homed { ports[0].peer_node } else { h };
            if col_of_root[root.idx()] == usize::MAX {
                col_of_root[root.idx()] = roots.len();
                roots.push(root);
            }
            dest[h.idx()] = Dest {
                base: (col_of_root[root.idx()] * n) as u32,
                attach: if single_homed { root.0 } else { NO_NODE },
                // Relative to the first host-link row until the column
                // count is known.
                attach_row: host_links as u32,
                reachable: !single_homed,
            };
            host_links += single_homed as usize;
        }
        // Rows: every node in every column, then one per single-homed host.
        // A node has at most one candidate per port in a column.
        let column_rows = roots.len() * n;
        let rows = column_rows + host_links;
        let max_ports = roots.len() * total_ports + host_links;
        assert!(
            u32::try_from(rows.max(max_ports)).is_ok_and(|m| m < NO_NODE),
            "route table too large for u32 offsets"
        );
        for d in dest.iter_mut().filter(|d| d.attach != NO_NODE) {
            d.attach_row += column_rows as u32;
        }
        let mut table = RouteTable {
            dest,
            roots,
            offsets: Vec::with_capacity(rows + 1),
            ports: Vec::with_capacity(max_ports),
            dist: vec![u32::MAX; n],
            bfs: VecDeque::with_capacity(n),
        };
        table.rebuild_filtered(topo, is_up);
        table
    }

    /// Recompute every route in place for the same topology, considering
    /// only links for which `is_up` returns true. Refills the storage
    /// reserved at build, so repeated rebuilds (link flap storms) allocate
    /// nothing.
    pub fn rebuild_filtered(&mut self, topo: &Topology, is_up: impl Fn(NodeId, PortId) -> bool) {
        let n = topo.nodes.len();
        debug_assert_eq!(self.dest.len(), n, "rebuild with a different topology");
        self.offsets.clear();
        self.ports.clear();
        self.offsets.push(0);
        for &root in &self.roots {
            self.dist.iter_mut().for_each(|d| *d = u32::MAX);
            self.dist[root.idx()] = 0;
            self.bfs.clear();
            self.bfs.push_back(root);
            while let Some(u) = self.bfs.pop_front() {
                let du = self.dist[u.idx()];
                for p in topo.node(u).ports.iter() {
                    // BFS runs from the destination towards sources, so the
                    // usable direction is peer -> u: check the peer's port.
                    if !is_up(p.peer_node, p.peer_port) {
                        continue;
                    }
                    let v = p.peer_node;
                    if self.dist[v.idx()] == u32::MAX {
                        self.dist[v.idx()] = du + 1;
                        self.bfs.push_back(v);
                    }
                }
            }
            for node in 0..n {
                let d = self.dist[node];
                if d != 0 && d != u32::MAX {
                    for (i, p) in topo.nodes[node].ports.iter().enumerate() {
                        if self.dist[p.peer_node.idx()] == d - 1
                            && is_up(NodeId(node as u32), PortId(i as u16))
                        {
                            self.ports.push(PortId(i as u16));
                        }
                    }
                }
                self.offsets.push(self.ports.len() as u32);
            }
        }
        for &h in topo.hosts() {
            if let [link] = topo.node(h).ports[..] {
                self.ports.push(link.peer_port);
                self.offsets.push(self.ports.len() as u32);
                self.dest[h.idx()].reachable = is_up(link.peer_node, link.peer_port);
            }
        }
    }

    /// The egress port `node` should use to forward `flow` towards `dst`.
    ///
    /// Panics if `dst` is not a host or is unreachable from `node`.
    #[inline]
    pub fn next_hop(&self, node: NodeId, dst: NodeId, flow: FlowId) -> PortId {
        self.try_next_hop(node, dst, flow)
            .unwrap_or_else(|| panic!("no route from {node} to {dst} — disconnected topology?"))
    }

    /// Like [`RouteTable::next_hop`] but returns `None` when the
    /// destination is unreachable (e.g. after link failures) or not a host.
    #[inline]
    pub fn try_next_hop(&self, node: NodeId, dst: NodeId, flow: FlowId) -> Option<PortId> {
        let cands = self.candidates(node, dst);
        match cands.len() {
            0 => None,
            1 => Some(cands[0]),
            len => Some(cands[(ecmp_hash(flow) % len as u64) as usize]),
        }
    }

    /// All equal-cost candidate ports from `node` towards `dst`; empty when
    /// `dst` is unreachable, is `node` itself, or is not a host.
    #[inline]
    pub fn candidates(&self, node: NodeId, dst: NodeId) -> &[PortId] {
        let Some(d) = self.dest.get(dst.idx()) else {
            return &[];
        };
        if !d.reachable || node == dst {
            return &[];
        }
        let row = if node.0 == d.attach {
            d.attach_row
        } else {
            d.base + node.0
        } as usize;
        &self.ports[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }

    /// How many columns the table stores and how many heap bytes its two
    /// CSR vectors hold.
    pub fn footprint(&self) -> RouteFootprint {
        RouteFootprint {
            columns: self.roots.len(),
            bytes: self.offsets.capacity() * std::mem::size_of::<u32>()
                + self.ports.capacity() * std::mem::size_of::<PortId>(),
        }
    }
}

/// SplitMix64-style hash over the flow id, matching the determinism
/// requirements of the simulator (no per-run randomness in path choice).
#[inline]
pub fn ecmp_hash(flow: FlowId) -> u64 {
    let mut z = flow.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::topology::TopologySpec;

    #[test]
    fn single_switch_routes_direct() {
        let topo = TopologySpec::single_switch(4, 10_000_000_000, SimTime::from_ns(100)).build();
        let rt = RouteTable::build(&topo);
        let sw = topo.switches()[0];
        for (i, &h) in topo.hosts().iter().enumerate() {
            let p = rt.next_hop(sw, h, FlowId(99));
            assert_eq!(topo.port(sw, p).peer_node, h, "host {i}");
        }
    }

    #[test]
    fn leaf_spine_ecmp_uses_all_spines() {
        let topo = TopologySpec::paper_testbed().build();
        let rt = RouteTable::build(&topo);
        let hosts = topo.hosts();
        // Source under leaf0, destination under a different leaf.
        let src_leaf = topo.port(hosts[0], PortId(0)).peer_node;
        let dst = hosts[topo.host_count() - 1];
        let cands = rt.candidates(src_leaf, dst);
        assert_eq!(cands.len(), 2, "both spines are equal-cost");
        // ECMP across many flows should hit both uplinks.
        let mut hit = [false; 2];
        for f in 0..64 {
            let p = rt.next_hop(src_leaf, dst, FlowId(f));
            let idx = cands.iter().position(|&c| c == p).unwrap();
            hit[idx] = true;
        }
        assert!(hit[0] && hit[1]);
    }

    #[test]
    fn same_rack_avoids_spine() {
        let topo = TopologySpec::paper_testbed().build();
        let rt = RouteTable::build(&topo);
        let hosts = topo.hosts();
        let leaf = topo.port(hosts[0], PortId(0)).peer_node;
        // hosts[1] shares leaf0 with hosts[0].
        let p = rt.next_hop(leaf, hosts[1], FlowId(3));
        assert_eq!(topo.port(leaf, p).peer_node, hosts[1]);
    }

    #[test]
    fn flow_path_is_stable() {
        let topo = TopologySpec::paper_large_sim().build();
        let rt = RouteTable::build(&topo);
        let hosts = topo.hosts();
        let leaf = topo.port(hosts[0], PortId(0)).peer_node;
        let dst = hosts[200];
        let p1 = rt.next_hop(leaf, dst, FlowId(7));
        for _ in 0..10 {
            assert_eq!(rt.next_hop(leaf, dst, FlowId(7)), p1);
        }
    }

    #[test]
    fn non_host_destination_has_no_route() {
        let topo = TopologySpec::paper_testbed().build();
        let rt = RouteTable::build(&topo);
        let (leaf, spine) = (topo.switches()[0], topo.switches()[4]);
        for dst in [leaf, spine, NodeId(topo.nodes.len() as u32)] {
            for node in [topo.hosts()[0], leaf, spine] {
                assert_eq!(rt.try_next_hop(node, dst, FlowId(1)), None);
                assert!(rt.candidates(node, dst).is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn next_hop_to_a_switch_panics() {
        let topo = TopologySpec::paper_testbed().build();
        let rt = RouteTable::build(&topo);
        rt.next_hop(topo.hosts()[0], topo.switches()[0], FlowId(1));
    }

    #[test]
    fn host_link_down_makes_only_that_host_unreachable() {
        let topo = TopologySpec::paper_testbed().build();
        let hosts = topo.hosts();
        let (dead, neighbour) = (hosts[0], hosts[1]);
        let leaf = topo.port(dead, PortId(0)).peer_node;
        let down = topo.port(dead, PortId(0)).peer_port;
        let rt = RouteTable::build_filtered(&topo, |n, p| (n, p) != (leaf, down));
        for node in 0..topo.nodes.len() as u32 {
            assert!(rt.candidates(NodeId(node), dead).is_empty(), "node {node}");
        }
        // The host's own transmit direction is up: it still reaches others,
        // and the hosts sharing its column are untouched.
        assert_eq!(rt.next_hop(dead, neighbour, FlowId(1)), PortId(0));
        assert_eq!(rt.candidates(hosts[23], neighbour).len(), 1);
        assert_eq!(rt.candidates(topo.switches()[3], neighbour).len(), 2);
    }

    /// The machine-independent size gate: on the 1024-host fabric the table
    /// is one column per switch that has hosts (none is multi-homed), under
    /// 2 MB — not one column per host.
    #[test]
    fn xl_clos_footprint_is_one_column_per_tor() {
        let topo = TopologySpec::paper_xl_clos().build();
        let has_hosts = |sw: NodeId| {
            topo.node(sw)
                .ports
                .iter()
                .any(|p| topo.is_host(p.peer_node))
        };
        let tors = topo.switches().iter().filter(|&&sw| has_hosts(sw)).count();
        let multi_homed = topo
            .hosts()
            .iter()
            .filter(|&&h| topo.node(h).ports.len() != 1);
        let fp = RouteTable::build(&topo).footprint();
        assert!(fp.columns <= tors + multi_homed.count(), "{fp:?}");
        assert_eq!(fp.columns, 64);
        assert!(fp.bytes < 2 << 20, "{fp:?}");
    }

    #[test]
    fn host_routes_out_its_nic() {
        let topo = TopologySpec::paper_testbed().build();
        let rt = RouteTable::build(&topo);
        let hosts = topo.hosts();
        assert_eq!(rt.next_hop(hosts[0], hosts[5], FlowId(1)), PortId(0));
    }
}
