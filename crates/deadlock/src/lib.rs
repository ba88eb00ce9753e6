//! # noc-deadlock
//!
//! Machine-checked deadlock-freedom analysis for every router × routing
//! × VC configuration in this workspace, via the classic
//! channel-dependency-graph (CDG) argument (Dally & Seitz): if the
//! graph whose vertices are virtual channels and whose edges connect
//! each channel to the channels a resident packet may wait for is
//! **acyclic**, the configuration cannot deadlock.
//!
//! The analysis builds the exact channel set a real network publishes
//! (each router's published link descriptors, including Table-1 class /
//! arrival / turn / order filters), explores the packet states
//! `(channel, destination, dimension order)` reachable from injection,
//! adds a dependency edge for every legal wait, and runs an iterative
//! cycle check on the channel projection.
//!
//! `analyze` also serves as the *negative* control: lifting the
//! workspace's northbound-only YX restriction (see
//! `RouteComputer::choose_order`) re-introduces the four-turn cycles of
//! unrestricted XY-YX mixing, and the checker finds them.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use noc_core::{
    AxisOrder, Coord, Direction, LinkMask, MeshConfig, RouterConfig, RouterKind, RoutingKind,
    Topology, TopologyOps, VcDescriptor, VcRequest,
};
use noc_router::Router;
use noc_routing::{quadrant_mask, DirSet, RouteComputer};
use std::collections::{HashMap, HashSet, VecDeque};

/// One virtual channel in the network: the link it sits on (identified
/// by the receiving node and its input side) plus the VC index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Channel {
    /// Node the channel delivers into.
    pub node: Coord,
    /// Input side of that node.
    pub side: Direction,
    /// VC index within the link's published list.
    pub vc: u8,
}

/// Outcome of a CDG analysis.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Total channels enumerated.
    pub channels: usize,
    /// Dependency edges between distinct channels.
    pub edges: usize,
    /// A channel cycle if one exists (deadlock possible), else `None`
    /// (deadlock-free by the CDG theorem).
    pub cycle: Option<Vec<Channel>>,
}

impl Analysis {
    /// Whether the configuration is proven deadlock-free.
    pub fn deadlock_free(&self) -> bool {
        self.cycle.is_none()
    }
}

/// Which dimension orders the analysis assumes packets may commit to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderPolicy {
    /// The workspace's shipping rule: YX only for strictly northbound
    /// packets (see DESIGN.md §7).
    Restricted,
    /// Unrestricted 50/50 XY-YX mixing — the negative control.
    Unrestricted,
}

/// A packet state during reachability: where its head could be
/// buffered, where it is going, its committed order, and its source
/// (consulted by odd-even's source-column turn exemption and by the
/// wraparound topologies' canonical-route and dateline functions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct State {
    channel: Channel,
    dst: Coord,
    order: AxisOrder,
    src: Coord,
}

/// The analyzer.
#[derive(Debug)]
pub struct CdgAnalyzer {
    topo: Topology,
    computer: RouteComputer,
    policy: OrderPolicy,
    /// Per (node, side): the published VC descriptors.
    links: HashMap<(Coord, Direction), Vec<VcDescriptor>>,
    /// Fault mask applied to route computation (ISSUE 8): when present,
    /// candidate sets come from [`RouteComputer::masked_candidates`] —
    /// including the west-first escape detours — and the analysis
    /// proves the *reconfigured* routing function cycle-free.
    mask: Option<LinkMask>,
}

impl CdgAnalyzer {
    /// Builds the channel inventory for `router` under `routing` on
    /// `mesh` by instantiating real routers and reading their published
    /// VC lists.
    pub fn new(
        router: RouterKind,
        routing: RoutingKind,
        mesh: MeshConfig,
        policy: OrderPolicy,
    ) -> Self {
        CdgAnalyzer::on(router, routing, Topology::mesh(mesh), policy)
    }

    /// Like [`CdgAnalyzer::new`], but building the channel graph from an
    /// arbitrary topology's port map (the trait's channel graph — torus
    /// and circulant channels include the wraparound links and dateline
    /// VC classes).
    pub fn on(
        router: RouterKind,
        routing: RoutingKind,
        topo: Topology,
        policy: OrderPolicy,
    ) -> Self {
        let cfg = RouterConfig::paper(router, routing);
        let grid = topo.grid();
        let mut links = HashMap::new();
        for i in 0..topo.nodes() {
            let coord = Coord::from_index(i, grid.width);
            let r = Router::new(coord, cfg, &topo);
            for side in Direction::ALL {
                links.insert((coord, side), r.core.link_descriptors(side).to_vec());
            }
        }
        let computer = RouteComputer::on(routing, topo.clone());
        CdgAnalyzer { topo, computer, policy, links, mask: None }
    }

    /// Like [`CdgAnalyzer::new`], but analyzing the fault-aware routing
    /// function reconfigured around `mask` (links the mask declares
    /// unusable are excluded from candidate sets; west-first adds its
    /// escape detours). The mask's topology supplies the channel graph.
    pub fn with_mask(
        router: RouterKind,
        routing: RoutingKind,
        policy: OrderPolicy,
        mask: LinkMask,
    ) -> Self {
        let mut a = CdgAnalyzer::on(router, routing, mask.topology().clone(), policy);
        a.mask = Some(mask);
        a
    }

    /// Candidate outputs at `cur` for the analyzed routing function —
    /// masked (fault-aware, arrival-sensitive) when a mask is set,
    /// plain otherwise.
    fn cands(
        &self,
        src: Coord,
        cur: Coord,
        dst: Coord,
        order: AxisOrder,
        arrival: Direction,
    ) -> DirSet {
        match &self.mask {
            Some(m) => self.computer.masked_candidates(src, cur, dst, order, arrival, m),
            None => self.computer.candidates(src, cur, dst, order),
        }
    }

    /// The dimension orders a packet from `src` to `dst` may commit to
    /// under the active policy.
    fn orders(&self, src: Coord, dst: Coord) -> Vec<AxisOrder> {
        if self.computer.routing() != RoutingKind::XyYx {
            return vec![AxisOrder::Xy];
        }
        match self.policy {
            OrderPolicy::Restricted if dst.y < src.y => vec![AxisOrder::Xy, AxisOrder::Yx],
            OrderPolicy::Restricted => vec![AxisOrder::Xy],
            OrderPolicy::Unrestricted => vec![AxisOrder::Xy, AxisOrder::Yx],
        }
    }

    /// The channels at `node`'s `side` admitting a flit that arrived on
    /// that side and will leave through `out` with the given packet
    /// state.
    fn admitting_channels(
        &self,
        node: Coord,
        side: Direction,
        out: Direction,
        src: Coord,
        dst: Coord,
        order: AxisOrder,
    ) -> Vec<Channel> {
        let descs = &self.links[&(node, side)];
        let req = VcRequest {
            in_dir: side,
            out_dir: out,
            order,
            quadrant_mask: quadrant_mask(node, dst),
            dateline: self.computer.vc_dateline(src, dst, node, side),
        };
        descs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.capacity > 0 && d.accepts(&req))
            .map(|(vc, _)| Channel { node, side, vc: vc as u8 })
            .collect()
    }

    /// Runs the analysis: reachability over packet states, edge
    /// construction, and cycle detection on the channel projection.
    pub fn analyze(&self) -> Analysis {
        // Seed: every (src, dst, order) injection places the head into
        // an injection channel at src; we model the wait edges starting
        // from the first *network* channel instead (injection channels
        // cannot be waited on by network traffic, so they never close a
        // cycle — they only generate reachable states).
        let mut states: VecDeque<State> = VecDeque::new();
        let mut seen: HashSet<State> = HashSet::new();
        let mut edges: HashSet<(Channel, Channel)> = HashSet::new();
        let grid = self.topo.grid();
        for si in 0..self.topo.nodes() {
            let src = Coord::from_index(si, grid.width);
            for di in 0..self.topo.nodes() {
                let dst = Coord::from_index(di, grid.width);
                if src == dst {
                    continue;
                }
                for order in self.orders(src, dst) {
                    // First hop: src's router sends the head toward each
                    // legal first direction; it lands in a channel at
                    // the neighbour.
                    for out in self.cands(src, src, dst, order, Direction::Local).iter() {
                        let Some(b) = self.neighbor(src, out) else { continue };
                        if b == dst {
                            continue; // delivered on arrival, no wait
                        }
                        for onward in self.cands(src, b, dst, order, out.opposite()).iter() {
                            for ch in
                                self.admitting_channels(b, out.opposite(), onward, src, dst, order)
                            {
                                let st = State { channel: ch, dst, order, src };
                                if seen.insert(st) {
                                    states.push_back(st);
                                }
                            }
                        }
                    }
                }
            }
        }
        // BFS over packet states; every move adds a wait edge.
        while let Some(st) = states.pop_front() {
            let State { channel, dst, order, src } = st;
            let node = channel.node;
            for out in self.cands(src, node, dst, order, channel.side).iter() {
                let Some(c) = self.neighbor(node, out) else { continue };
                if c == dst {
                    continue; // ejection: no downstream channel to wait for
                }
                for onward in self.cands(src, c, dst, order, out.opposite()).iter() {
                    for next in self.admitting_channels(c, out.opposite(), onward, src, dst, order)
                    {
                        edges.insert((channel, next));
                        let st2 = State { channel: next, dst, order, src };
                        if seen.insert(st2) {
                            states.push_back(st2);
                        }
                    }
                }
            }
        }
        // Project to channels and find a cycle (iterative DFS).
        let mut adj: HashMap<Channel, Vec<Channel>> = HashMap::new();
        for (a, b) in &edges {
            adj.entry(*a).or_default().push(*b);
        }
        let cycle = find_cycle(&adj);
        Analysis {
            channels: seen.iter().map(|s| s.channel).collect::<HashSet<_>>().len(),
            edges: edges.len(),
            cycle,
        }
    }

    fn neighbor(&self, node: Coord, dir: Direction) -> Option<Coord> {
        self.topo.neighbor(node, dir)
    }
}

/// Iterative three-colour DFS cycle detection; returns the cycle's
/// channel sequence if one exists.
fn find_cycle(adj: &HashMap<Channel, Vec<Channel>>) -> Option<Vec<Channel>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: HashMap<Channel, Color> = HashMap::new();
    let mut nodes: Vec<Channel> = adj.keys().copied().collect();
    nodes.sort();
    for &start in &nodes {
        if *color.get(&start).unwrap_or(&Color::White) != Color::White {
            continue;
        }
        // Stack of (node, next child index); path tracks the gray chain.
        let mut stack: Vec<(Channel, usize)> = vec![(start, 0)];
        let mut path: Vec<Channel> = vec![start];
        color.insert(start, Color::Gray);
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let children = adj.get(&node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *idx < children.len() {
                let child = children[*idx];
                *idx += 1;
                match *color.get(&child).unwrap_or(&Color::White) {
                    Color::Gray => {
                        // Cycle: slice the path from child onwards.
                        let pos = path.iter().position(|&c| c == child).expect("gray in path");
                        let mut cyc = path[pos..].to_vec();
                        cyc.push(child);
                        return Some(cyc);
                    }
                    Color::White => {
                        color.insert(child, Color::Gray);
                        stack.push((child, 0));
                        path.push(child);
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

/// Cycle detection over an arbitrary channel wait-for graph: returns
/// the cycle's channel sequence (first element repeated at the end) if
/// one exists.
///
/// The static analyzer builds its graph from the routing function's
/// *possible* dependencies; this entry point lets a *runtime* observer
/// (the simulator's stall post-mortem) feed in the actually-observed
/// wait-for edges of a wedged network and ask whether they close a
/// loop — the signature of a true deadlock rather than plain
/// fault-induced blocking.
pub fn find_channel_cycle(adj: &HashMap<Channel, Vec<Channel>>) -> Option<Vec<Channel>> {
    find_cycle(adj)
}

/// Convenience: analyze one configuration on a small topology (a plain
/// [`MeshConfig`] converts into a mesh topology) and return the
/// analysis.
pub fn verify(router: RouterKind, routing: RoutingKind, topo: impl Into<Topology>) -> Analysis {
    CdgAnalyzer::on(router, routing, topo.into(), OrderPolicy::Restricted).analyze()
}

/// Convenience: analyze one configuration whose routing function has
/// been reconfigured around `mask` (ISSUE 8) and return the analysis.
/// The channel graph comes from the mask's topology.
pub fn verify_masked(router: RouterKind, routing: RoutingKind, mask: LinkMask) -> Analysis {
    CdgAnalyzer::with_mask(router, routing, OrderPolicy::Restricted, mask).analyze()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MESH: MeshConfig = MeshConfig::new(5, 5);

    #[test]
    fn every_shipping_configuration_is_deadlock_free() {
        for router in RouterKind::ALL {
            for routing in [
                RoutingKind::Xy,
                RoutingKind::XyYx,
                RoutingKind::Adaptive,
                RoutingKind::AdaptiveOddEven,
            ] {
                let a = verify(router, routing, MESH);
                assert!(a.channels > 0 && a.edges > 0, "{router}/{routing}: empty CDG");
                assert!(a.deadlock_free(), "{router}/{routing}: CDG cycle {:?}", a.cycle);
            }
        }
    }

    #[test]
    fn unrestricted_xyyx_has_cycles_on_shared_channels() {
        // The negative control: removing the northbound-only YX
        // restriction re-creates the classic four-turn ring on the
        // generic router's shared Any-admission channels.
        let a = CdgAnalyzer::new(
            RouterKind::Generic,
            RoutingKind::XyYx,
            MESH,
            OrderPolicy::Unrestricted,
        )
        .analyze();
        assert!(!a.deadlock_free(), "unrestricted XY-YX should form a CDG cycle");
        let cycle = a.cycle.unwrap();
        assert!(cycle.len() >= 4, "a mesh ring needs at least four channels");
    }

    #[test]
    fn restricted_xyyx_on_roco_is_acyclic() {
        let a = verify(RouterKind::RoCo, RoutingKind::XyYx, MESH);
        assert!(a.deadlock_free(), "cycle: {:?}", a.cycle);
    }

    #[test]
    fn cycle_detector_finds_a_planted_cycle() {
        let c = |i: u8| Channel { node: Coord::new(i as u16, 0), side: Direction::West, vc: 0 };
        let mut adj = HashMap::new();
        adj.insert(c(0), vec![c(1)]);
        adj.insert(c(1), vec![c(2)]);
        adj.insert(c(2), vec![c(0)]);
        let cyc = find_cycle(&adj).expect("planted cycle found");
        assert!(cyc.len() >= 3);
        assert_eq!(cyc.first(), cyc.last());
    }

    #[test]
    fn cycle_detector_accepts_a_dag() {
        let c = |i: u8| Channel { node: Coord::new(i as u16, 0), side: Direction::West, vc: 0 };
        let mut adj = HashMap::new();
        adj.insert(c(0), vec![c(1), c(2)]);
        adj.insert(c(1), vec![c(3)]);
        adj.insert(c(2), vec![c(3)]);
        assert!(find_cycle(&adj).is_none());
    }

    /// Strips the dateline partition off an analyzer's channel
    /// inventory, modelling a wraparound network that (unsoundly) shares
    /// all VCs between both dateline classes.
    fn strip_datelines(analyzer: &mut CdgAnalyzer) {
        for descs in analyzer.links.values_mut() {
            for d in descs.iter_mut() {
                d.dateline = None;
            }
        }
    }

    #[test]
    fn torus_with_dateline_vcs_is_deadlock_free() {
        use noc_core::TopologyConfig;
        let topo = TopologyConfig::Torus.resolve(MeshConfig::new(4, 4)).unwrap();
        let a = verify(RouterKind::Generic, RoutingKind::Xy, &topo);
        assert!(a.channels > 0 && a.edges > 0, "empty torus CDG");
        assert!(a.deadlock_free(), "torus dateline scheme broken: {:?}", a.cycle);
        // Negative control: with the dateline partition stripped (all
        // VCs shared between both classes) the ring dependency must
        // close. This both proves the wraparound links are in the
        // channel graph and that the dateline VCs are what cut the
        // cycle.
        let mut undated =
            CdgAnalyzer::on(RouterKind::Generic, RoutingKind::Xy, topo, OrderPolicy::Restricted);
        strip_datelines(&mut undated);
        let b = undated.analyze();
        assert!(!b.deadlock_free(), "undated torus rings must close a CDG cycle");
    }

    #[test]
    fn circulant_with_dateline_vcs_is_deadlock_free() {
        use noc_core::TopologyConfig;
        // C(13; 1, 5) has diameter 2: no route ever waits on a second
        // network channel, so its CDG is trivially edge-free. Check it
        // for reachable channels, then run the full cycle argument on a
        // larger ring whose canonical routes chain several hops.
        let c13 = TopologyConfig::Circulant { nodes: 13, s1: 1, s2: 5 }
            .resolve(MeshConfig::new(13, 1))
            .unwrap();
        let a = verify(RouterKind::Generic, RoutingKind::Xy, &c13);
        assert!(a.channels > 0, "empty C(13;1,5) channel set");
        assert!(a.deadlock_free(), "C(13;1,5) dateline scheme broken: {:?}", a.cycle);

        let c25 = TopologyConfig::Circulant { nodes: 25, s1: 1, s2: 7 }
            .resolve(MeshConfig::new(25, 1))
            .unwrap();
        let a = verify(RouterKind::Generic, RoutingKind::Xy, &c25);
        assert!(a.channels > 0 && a.edges > 0, "empty C(25;1,7) CDG");
        assert!(a.deadlock_free(), "circulant dateline scheme broken: {:?}", a.cycle);
        // Negative control, as for the torus: sharing VCs across the
        // dateline closes the generator-ring cycle.
        let mut undated =
            CdgAnalyzer::on(RouterKind::Generic, RoutingKind::Xy, c25, OrderPolicy::Restricted);
        strip_datelines(&mut undated);
        let b = undated.analyze();
        assert!(!b.deadlock_free(), "undated circulant rings must close a CDG cycle");
    }

    #[test]
    fn chiplet_mesh_matches_mesh_deadlock_argument() {
        use noc_core::TopologyConfig;
        let topo = TopologyConfig::Chiplet {
            chips_x: 2,
            chips_y: 2,
            chip_width: 2,
            chip_height: 2,
            d2d_delay: 4,
        }
        .resolve(MeshConfig::new(4, 4))
        .unwrap();
        for router in RouterKind::ALL {
            let a = verify(router, RoutingKind::Xy, &topo);
            assert!(a.deadlock_free(), "{router} on chiplet: {:?}", a.cycle);
        }
    }

    #[test]
    fn channel_counts_match_the_architectures() {
        // Interior links: generic publishes 3 VCs per link, PS 2, RoCo 3.
        let g = verify(RouterKind::Generic, RoutingKind::Xy, MESH);
        let p = verify(RouterKind::PathSensitive, RoutingKind::Xy, MESH);
        assert!(g.channels > p.channels, "generic exposes more channels than PS");
    }
}
