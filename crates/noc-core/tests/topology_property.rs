//! Property tests for the topology abstraction (ISSUE 9), mirroring
//! the mask sweep style of `noc-deadlock/tests/masked_property.rs`:
//! every supported topology must expose a *symmetric* port map (a link
//! is one physical object seen from two ends) and build link masks
//! that round-trip through published node statuses exactly like the
//! simulator's fault view does. The reachability map is checked pair
//! for pair against a per-destination BFS oracle.

use noc_core::rng::SplitMix64;
use noc_core::{
    Coord, Direction, LinkMask, MeshConfig, ModuleHealth, NodeStatus, ReachabilityMap, Topology,
    TopologyConfig, TopologyOps,
};

/// Every topology family at a few shapes each.
fn topologies() -> Vec<(String, Topology)> {
    let mut out = Vec::new();
    for (w, h) in [(2u16, 2u16), (4, 3), (5, 5)] {
        let t = TopologyConfig::Mesh.resolve(MeshConfig::new(w, h)).unwrap();
        out.push((format!("mesh {w}x{h}"), t));
    }
    for (w, h) in [(3u16, 3u16), (4, 4), (5, 3)] {
        let t = TopologyConfig::Torus.resolve(MeshConfig::new(w, h)).unwrap();
        out.push((format!("torus {w}x{h}"), t));
    }
    for (n, s1, s2) in [(13u16, 1u16, 5u16), (16, 1, 7), (25, 1, 7)] {
        let cfg = TopologyConfig::Circulant { nodes: n, s1, s2 };
        let t = cfg.resolve(MeshConfig::new(n, 1)).unwrap();
        out.push((format!("circulant C({n};{s1},{s2})"), t));
    }
    for (cx, cy, w, h, d) in [(2u16, 1u16, 3u16, 3u16, 2u8), (2, 2, 2, 2, 3), (3, 2, 2, 3, 4)] {
        let cfg = TopologyConfig::Chiplet {
            chips_x: cx,
            chips_y: cy,
            chip_width: w,
            chip_height: h,
            d2d_delay: d,
        };
        let t = cfg.resolve(cfg.grid(MeshConfig::new(1, 1))).unwrap();
        out.push((format!("chiplet {cx}x{cy} of {w}x{h} (d2d {d})"), t));
    }
    out
}

fn nodes_of(topo: &Topology) -> impl Iterator<Item = Coord> + '_ {
    let grid = topo.grid();
    (0..topo.nodes()).map(move |i| Coord::from_index(i, grid.width))
}

/// The reachability oracle: one backward BFS per destination over the
/// reversed masked link graph, O(nodes²). Row-major `[dst][src]`.
fn bfs_reachability(topo: &Topology, mask: &LinkMask) -> Vec<bool> {
    let grid = topo.grid();
    let n = topo.nodes();
    let mut reach = vec![false; n * n];
    let mut queue = Vec::with_capacity(n);
    for dst in 0..n {
        let row = &mut reach[dst * n..(dst + 1) * n];
        row[dst] = true;
        queue.clear();
        queue.push(dst);
        while let Some(v) = queue.pop() {
            let vc = Coord::from_index(v, grid.width);
            // Predecessors: nodes u with a usable link into v.
            // Port symmetry gives: u --dir.opposite()--> v.
            for dir in Direction::MESH {
                let Some(u) = topo.neighbor(vc, dir) else { continue };
                let ui = u.index(grid.width);
                if !row[ui] && mask.usable(u, dir.opposite()) {
                    row[ui] = true;
                    queue.push(ui);
                }
            }
        }
    }
    reach
}

/// What the oracle comparison has covered so far, so it cannot pass
/// on a sample without the cases that tell SCCs from weaker maps.
#[derive(Default)]
struct OracleCoverage {
    /// Pairs where `s` reaches `d` but `d` does not reach `s`.
    asymmetric: usize,
    /// Pairs where `s` does not reach `d`.
    unreachable: usize,
    /// Most strongly connected components seen in one mask.
    max_components: usize,
}

/// Asserts `ReachabilityMap` equals the BFS oracle on every pair.
fn check_against_oracle(name: &str, topo: &Topology, mask: &LinkMask, cov: &mut OracleCoverage) {
    let n = topo.nodes();
    let width = topo.grid().width;
    let oracle = bfs_reachability(topo, mask);
    let at = |s: usize, d: usize| oracle[d * n + s];
    let map = ReachabilityMap::compute(mask);
    let mut components = 0;
    for s in 0..n {
        let sc = Coord::from_index(s, width);
        for d in 0..n {
            let dc = Coord::from_index(d, width);
            assert_eq!(map.reachable(sc, dc), at(s, d), "{name}: {sc} -> {dc}");
            cov.unreachable += usize::from(!at(s, d));
            cov.asymmetric += usize::from(at(s, d) && !at(d, s));
        }
        // `s` is the lowest-numbered node of its component.
        components += usize::from((0..s).all(|u| !(at(u, s) && at(s, u))));
    }
    cov.max_components = cov.max_components.max(components);
}

#[test]
fn port_map_is_symmetric_on_every_topology() {
    // A link is one physical object: if `n`'s `d` port reaches `m`,
    // then `m`'s opposite port must reach `n`, with the same per-link
    // delay seen from both ends. This is what lets the simulator pay
    // credits upstream through the same table it forwards flits
    // downstream through.
    for (name, topo) in topologies() {
        let mut links = 0usize;
        for n in nodes_of(&topo) {
            for d in Direction::MESH {
                let Some(m) = topo.neighbor(n, d) else { continue };
                links += 1;
                assert_eq!(
                    topo.neighbor(m, d.opposite()),
                    Some(n),
                    "{name}: {n} --{d}--> {m} has no return edge"
                );
                assert_eq!(
                    topo.link_delay(n, d),
                    topo.link_delay(m, d.opposite()),
                    "{name}: link {n}--{m} has asymmetric delay"
                );
                let delay = topo.link_delay(n, d);
                assert!(
                    (1..=topo.max_link_delay()).contains(&delay),
                    "{name}: delay {delay} outside [1, max]"
                );
            }
        }
        assert!(links > 0, "{name}: no links at all");
    }
}

#[test]
fn node_names_are_unique_on_every_topology() {
    for (name, topo) in topologies() {
        let mut seen = std::collections::HashSet::new();
        for n in nodes_of(&topo) {
            assert!(seen.insert(topo.node_name(n)), "{name}: duplicate node name at {n}");
        }
        assert_eq!(seen.len(), topo.nodes(), "{name}: name count");
    }
}

#[test]
fn status_masks_round_trip_on_every_topology() {
    // The simulator's fault view: kill a random node's row/column
    // modules, build the mask from published statuses, and check the
    // mask blocks exactly the links touching the dead node — both
    // directions, on every topology.
    let mut rng = SplitMix64::new(0x7090_0009);
    for (name, topo) in topologies() {
        let grid = topo.grid();
        for _round in 0..8 {
            let dead_idx = rng.below(topo.nodes() as u64) as usize;
            let dead = Coord::from_index(dead_idx, grid.width);
            let mut statuses = vec![NodeStatus::healthy(); topo.nodes()];
            statuses[dead_idx] =
                NodeStatus { row: ModuleHealth::Dead, col: ModuleHealth::Dead, rc_ok: false };
            let mask = LinkMask::from_statuses(&topo, &statuses);
            for n in nodes_of(&topo) {
                for d in Direction::MESH {
                    let Some(m) = topo.neighbor(n, d) else { continue };
                    let expect_up = n != dead && m != dead;
                    assert_eq!(
                        mask.usable(n, d),
                        expect_up,
                        "{name}: link {n} --{d}--> {m} with {dead} dead"
                    );
                }
            }
            // And reachability honours the holes: nobody reaches the
            // dead node.
            let map = ReachabilityMap::compute(&mask);
            for n in nodes_of(&topo) {
                if n != dead {
                    assert!(!map.reachable(n, dead), "{name}: {n} reaches dead {dead}");
                }
            }
        }
        // The healthy mask round-trips trivially: everything usable,
        // everything mutually reachable.
        let healthy = LinkMask::from_statuses(&topo, &vec![NodeStatus::healthy(); topo.nodes()]);
        let map = ReachabilityMap::compute(&healthy);
        for n in nodes_of(&topo) {
            for m in nodes_of(&topo) {
                assert!(map.reachable(n, m), "{name}: healthy {n} cannot reach {m}");
            }
        }
    }
}

#[test]
fn reachability_map_matches_the_bfs_oracle() {
    let mut rng = SplitMix64::new(0x5CC0_DA6E);
    let mut shapes = topologies();
    let big = TopologyConfig::Mesh.resolve(MeshConfig::new(32, 32)).unwrap();
    shapes.push(("mesh 32x32".to_string(), big));
    let mut cov = OracleCoverage::default();
    for (name, topo) in &shapes {
        check_against_oracle(&format!("{name} all up"), topo, &LinkMask::all_up(topo), &mut cov);
        // Each direction of each link is drawn on its own, so one-way
        // links are common.
        for p in [0.3, 0.6, 0.85, 0.95] {
            let mask = LinkMask::from_fn(topo, |_, _| rng.next_f64() < p);
            check_against_oracle(&format!("{name} links at {p}"), topo, &mask, &mut cov);
        }
        // Published statuses: several whole-node deaths plus nodes that
        // lost one module, whose outputs on that axis go dark while
        // their neighbours still send into them.
        for round in 0..3 {
            let mut statuses = vec![NodeStatus::healthy(); topo.nodes()];
            for _ in 0..2 + round {
                let i = rng.below(topo.nodes() as u64) as usize;
                statuses[i] =
                    NodeStatus { row: ModuleHealth::Dead, col: ModuleHealth::Dead, rc_ok: false };
                let j = rng.below(topo.nodes() as u64) as usize;
                if rng.next_u64() & 1 == 0 {
                    statuses[j].row = ModuleHealth::Dead;
                } else {
                    statuses[j].col = ModuleHealth::Dead;
                }
            }
            let mask = LinkMask::from_statuses(topo, &statuses);
            check_against_oracle(&format!("{name} statuses #{round}"), topo, &mask, &mut cov);
        }
        // All links down: every node is its own component, which on
        // the 32x32 mesh needs multi-word component rows.
        let down = LinkMask::from_fn(topo, |_, _| false);
        check_against_oracle(&format!("{name} all down"), topo, &down, &mut cov);
    }
    assert!(cov.asymmetric > 0, "no asymmetric pair sampled");
    assert!(cov.unreachable > 0, "no unreachable pair sampled");
    assert!(cov.max_components > 64, "no mask with more than 64 components");
}
