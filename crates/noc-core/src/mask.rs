//! Fault-status link masks and reachability maps (ISSUE 8).
//!
//! The §4.1 published-status handshake gives every node a bounded-stale
//! view of its neighbours' health. [`LinkMask`] condenses that view into
//! one 4-bit word per node — bit [`Direction::index`] set means the
//! output link on that side is currently usable — so route computation
//! can exclude dead links with a single mask intersection instead of a
//! status lookup per candidate. [`ReachabilityMap`] is the source-side
//! companion: all-pairs connectivity over the masked link graph, built
//! in O(nodes + links) from its strongly connected components and
//! recomputed only when a republication actually changes the mask, so
//! sources can fail packets toward unreachable destinations fast
//! (`unroutable`) instead of burning bounded-retry cycles.

use crate::config::MeshConfig;
use crate::geometry::{Coord, Direction};
use crate::node::NodeStatus;
use crate::topology::{Topology, TopologyOps};

/// Per-node usable-output-link bitmask over the four mesh directions.
///
/// A link `(node, dir)` is *usable* when the node's own output on that
/// side is serviceable, a neighbour exists there, and the neighbour is
/// not dead — all judged from the **published** statuses, so the mask
/// carries the same bounded (`handshake_latency`) staleness as the
/// §4.1 status wires it models.
///
/// Adjacency comes from a [`Topology`]: constructors accept anything
/// convertible into one, so existing mesh call sites can keep passing a
/// [`MeshConfig`] while topology-aware callers pass the resolved
/// instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkMask {
    topo: Topology,
    /// One 4-bit word per node, bit [`Direction::index`] = output usable.
    bits: Vec<u8>,
}

impl LinkMask {
    /// Bitmask with every in-mesh link on all four sides.
    const FULL: u8 = 0b1111;

    /// A mask over `topo` where every connected link is usable (the
    /// fault-free view; unconnected boundary bits are clear).
    pub fn all_up(topo: impl Into<Topology>) -> Self {
        LinkMask::from_fn(topo, |_, _| true)
    }

    /// Builds a mask by asking `usable(node, dir)` for every connected
    /// link. Ports with no neighbour are always masked off.
    pub fn from_fn(
        topo: impl Into<Topology>,
        mut usable: impl FnMut(Coord, Direction) -> bool,
    ) -> Self {
        let topo = topo.into();
        let grid = topo.grid();
        let mut bits = vec![0u8; topo.nodes()];
        for (i, word) in bits.iter_mut().enumerate() {
            let node = Coord::from_index(i, grid.width);
            for dir in Direction::MESH {
                if topo.neighbor(node, dir).is_some() && usable(node, dir) {
                    *word |= 1 << dir.index();
                }
            }
        }
        LinkMask { topo, bits }
    }

    /// Builds the mask implied by a slice of **published** node
    /// statuses (indexed by [`Coord::index`]): `(node, dir)` is usable
    /// when the node's own output on that side is serviceable and the
    /// neighbour on that side is not dead.
    pub fn from_statuses(topo: impl Into<Topology>, statuses: &[NodeStatus]) -> Self {
        let topo = topo.into();
        let grid = topo.grid();
        assert_eq!(statuses.len(), topo.nodes(), "one status per node");
        LinkMask::from_fn(topo.clone(), |node, dir| {
            let own = statuses[node.index(grid.width)];
            let Some(nb) = topo.neighbor(node, dir) else { return false };
            own.can_serve_output(dir) && !statuses[nb.index(grid.width)].node_dead()
        })
    }

    /// The bounding grid this mask covers.
    pub fn mesh(&self) -> MeshConfig {
        self.topo.grid()
    }

    /// The topology this mask covers.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Whether the output link `(node, dir)` is usable.
    /// [`Direction::Local`] is always usable (ejection is not a link).
    pub fn usable(&self, node: Coord, dir: Direction) -> bool {
        if dir == Direction::Local {
            return true;
        }
        self.bits[node.index(self.topo.grid().width)] & (1 << dir.index()) != 0
    }

    /// The raw 4-bit word for the node at flat index `i`.
    pub fn node_bits(&self, i: usize) -> u8 {
        self.bits[i]
    }

    /// `true` when every connected link is usable (fault-free mask).
    pub fn is_full(&self) -> bool {
        let grid = self.topo.grid();
        self.bits.iter().enumerate().all(|(i, &w)| {
            let node = Coord::from_index(i, grid.width);
            let full: u8 = Direction::MESH
                .iter()
                .filter(|&&d| self.topo.neighbor(node, d).is_some())
                .fold(0, |acc, d| acc | (1 << d.index()));
            w == full & Self::FULL
        })
    }
}

/// Source-to-destination connectivity over the masked link graph.
///
/// `reachable(src, dst)` answers "does *any* path of usable links lead
/// from `src` to `dst`?" — a sound over-approximation of every routing
/// function we ship: when it says unreachable, no candidate set could
/// deliver the packet, so failing fast is safe; when it says reachable
/// but the turn model still cannot get there, the packet falls back to
/// the normal retry/abandon path and accounting stays closed.
///
/// The map stores the *strongly* connected components of the masked
/// graph — the mask is directional (a node's own output can be
/// unserviceable while its neighbour is alive), so plain connected
/// components would over-report — plus one reachability bitset per
/// component over the condensation DAG. With `k` dead nodes there are
/// about `k + 1` components, so the map is a component id per node and
/// a few words per component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachabilityMap {
    /// Grid width, for flat node indices.
    width: u16,
    /// Component of each node, numbered sinks first.
    comp: Vec<u32>,
    /// `u64` words per component row.
    words: usize,
    /// Row `c`, bit `c'`: component `c` reaches component `c'`.
    reach: Vec<u64>,
}

impl ReachabilityMap {
    /// Computes the map with one iterative Tarjan pass over the masked
    /// link graph, O(nodes + links), plus C²/64 words for C components.
    /// Tarjan emits components sinks first, so each component's row is
    /// the OR of its successors' finished rows. Recomputed only on
    /// republication events, never on the cycle hot path.
    pub fn compute(mask: &LinkMask) -> Self {
        const UNSEEN: u32 = u32::MAX;
        let topo = mask.topology();
        let width = topo.grid().width;
        let n = topo.nodes();
        let successor = |v: usize, dir: Direction| {
            if mask.node_bits(v) & (1 << dir.index()) == 0 {
                return None;
            }
            topo.neighbor(Coord::from_index(v, width), dir).map(|c| c.index(width))
        };

        // Tarjan: `order` is the discovery index, `low` the low-link.
        // A visited node whose `comp` is still UNSEEN is on `stack`.
        let mut order = vec![UNSEEN; n];
        let mut low = vec![0u32; n];
        let mut comp = vec![UNSEEN; n];
        let mut stack: Vec<u32> = Vec::new();
        // DFS frames: (node, index into Direction::MESH of the next edge).
        let mut frames: Vec<(u32, usize)> = Vec::new();
        // Nodes in emission order; `ends[c]` closes component `c`.
        let mut members: Vec<u32> = Vec::with_capacity(n);
        let mut ends: Vec<usize> = Vec::new();
        let mut visited = 0u32;
        for root in 0..n {
            if order[root] != UNSEEN {
                continue;
            }
            order[root] = visited;
            low[root] = visited;
            visited += 1;
            stack.push(root as u32);
            frames.push((root as u32, 0));
            while let Some(frame) = frames.last_mut() {
                let v = frame.0 as usize;
                if let Some(&dir) = Direction::MESH.get(frame.1) {
                    frame.1 += 1;
                    let Some(w) = successor(v, dir) else { continue };
                    if order[w] == UNSEEN {
                        order[w] = visited;
                        low[w] = visited;
                        visited += 1;
                        stack.push(w as u32);
                        frames.push((w as u32, 0));
                    } else if comp[w] == UNSEEN {
                        low[v] = low[v].min(order[w]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    let parent = parent as usize;
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == order[v] {
                    let id = ends.len() as u32;
                    while let Some(w) = stack.pop() {
                        comp[w as usize] = id;
                        members.push(w);
                        if w as usize == v {
                            break;
                        }
                    }
                    ends.push(members.len());
                }
            }
        }

        // Every successor component of `c` was emitted before `c`, so
        // its row is final. A successor whose bit is already set adds
        // nothing: some row ORed earlier reaches it and so holds its
        // whole row.
        let words = ends.len().div_ceil(64);
        let mut reach = vec![0u64; ends.len() * words];
        let mut start = 0;
        for (c, &end) in ends.iter().enumerate() {
            let (done, rest) = reach.split_at_mut(c * words);
            let row = &mut rest[..words];
            row[c / 64] |= 1 << (c % 64);
            for &v in &members[start..end] {
                for dir in Direction::MESH {
                    let Some(w) = successor(v as usize, dir) else { continue };
                    let s = comp[w] as usize;
                    if row[s / 64] & (1 << (s % 64)) == 0 {
                        for (a, b) in row.iter_mut().zip(&done[s * words..(s + 1) * words]) {
                            *a |= b;
                        }
                    }
                }
            }
            start = end;
        }
        ReachabilityMap { width, comp, words, reach }
    }

    /// Whether any path of usable links leads from `src` to `dst`.
    pub fn reachable(&self, src: Coord, dst: Coord) -> bool {
        let s = self.comp[src.index(self.width)] as usize;
        let d = self.comp[dst.index(self.width)] as usize;
        self.reach[s * self.words + d / 64] & (1 << (d % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> MeshConfig {
        MeshConfig::new(4, 4)
    }

    #[test]
    fn all_up_masks_only_the_boundary() {
        let m = LinkMask::all_up(mesh());
        assert!(m.is_full());
        assert!(m.usable(Coord::new(1, 1), Direction::East));
        // Boundary links leave the mesh and are never usable.
        assert!(!m.usable(Coord::new(0, 0), Direction::West));
        assert!(!m.usable(Coord::new(0, 0), Direction::North));
        // Ejection is not a link.
        assert!(m.usable(Coord::new(0, 0), Direction::Local));
    }

    #[test]
    fn from_fn_respects_the_predicate() {
        let cut = (Coord::new(1, 1), Direction::East);
        let m = LinkMask::from_fn(mesh(), |n, d| (n, d) != cut);
        assert!(!m.usable(cut.0, cut.1));
        assert!(m.usable(Coord::new(1, 1), Direction::South));
        assert!(!m.is_full());
    }

    #[test]
    fn fully_connected_mesh_reaches_everywhere() {
        let r = ReachabilityMap::compute(&LinkMask::all_up(mesh()));
        for s in 0..16 {
            for d in 0..16 {
                let (s, d) = (Coord::from_index(s, 4), Coord::from_index(d, 4));
                assert!(r.reachable(s, d), "{s:?} should reach {d:?}");
            }
        }
        let dst = Coord::new(2, 2);
        assert_eq!((0..16).filter(|&s| r.reachable(Coord::from_index(s, 4), dst)).count(), 16);
    }

    #[test]
    fn severed_column_splits_reachability() {
        // Cut every link crossing between x=1 and x=2, in both
        // directions: the mesh splits into two halves.
        let m = LinkMask::from_fn(mesh(), |n, d| {
            !((n.x == 1 && d == Direction::East) || (n.x == 2 && d == Direction::West))
        });
        let r = ReachabilityMap::compute(&m);
        assert!(r.reachable(Coord::new(0, 0), Coord::new(1, 3)));
        assert!(r.reachable(Coord::new(3, 0), Coord::new(2, 3)));
        assert!(!r.reachable(Coord::new(0, 0), Coord::new(2, 0)));
        assert!(!r.reachable(Coord::new(3, 3), Coord::new(1, 3)));
        let dst = Coord::new(0, 0);
        assert_eq!((0..16).filter(|&s| r.reachable(Coord::from_index(s, 4), dst)).count(), 8);
    }

    #[test]
    fn one_way_links_are_directional() {
        // Usable (1,1)->E but not (2,1)->W: (1,1) reaches (2,1), and
        // (2,1) still reaches (1,1) the long way around unless we also
        // cut the detours — so cut the whole column except one eastward
        // link to make the asymmetry visible.
        let m = LinkMask::from_fn(mesh(), |n, d| {
            let crossing_east = n.x == 1 && d == Direction::East;
            let crossing_west = n.x == 2 && d == Direction::West;
            if crossing_west {
                return false;
            }
            if crossing_east {
                return n.y == 1;
            }
            true
        });
        let r = ReachabilityMap::compute(&m);
        assert!(r.reachable(Coord::new(0, 0), Coord::new(3, 3)));
        assert!(!r.reachable(Coord::new(3, 3), Coord::new(0, 0)));
    }

    #[test]
    fn from_statuses_masks_dead_neighbours_both_ways() {
        let mut statuses = vec![NodeStatus::default(); mesh().nodes()];
        let dead = Coord::new(2, 1).index(4);
        statuses[dead] = NodeStatus {
            row: crate::ModuleHealth::Dead,
            col: crate::ModuleHealth::Dead,
            rc_ok: false,
        };
        let m = LinkMask::from_statuses(mesh(), &statuses);
        // Links into the dead node are masked (neighbour dead)…
        assert!(!m.usable(Coord::new(1, 1), Direction::East));
        assert!(!m.usable(Coord::new(2, 0), Direction::South));
        // …and links out of it are masked (own outputs unserviceable).
        assert!(!m.usable(Coord::new(2, 1), Direction::East));
        // Unrelated links stay up.
        assert!(m.usable(Coord::new(0, 0), Direction::East));
        // The dead node is unreachable; everyone else still connects.
        let r = ReachabilityMap::compute(&m);
        assert!(!r.reachable(Coord::new(0, 0), Coord::new(2, 1)));
        assert!(r.reachable(Coord::new(0, 0), Coord::new(3, 3)));
    }
}
