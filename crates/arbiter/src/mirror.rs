//! The Mirroring-Effect switch allocator (§3.3 of the paper).
//!
//! Each RoCo module owns a 2×2 crossbar: two input ports, two output
//! directions. The Mirror allocator performs global arbitration *once*,
//! at port 1, and grants port 2 the mirrored (opposite) direction —
//! using state information from both ports so that the result is always
//! a **maximal matching** between inputs and outputs.

use crate::rr::RoundRobinArbiter;

/// Grant produced by the mirror allocator for one module in one cycle:
/// for each input port, the output slot (0 or 1) it may drive, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MirrorGrant {
    /// Output slot granted to input port 0.
    pub port0: Option<usize>,
    /// Output slot granted to input port 1.
    pub port1: Option<usize>,
}

impl MirrorGrant {
    /// Number of grants issued (0, 1 or 2).
    pub fn matches(&self) -> usize {
        self.port0.is_some() as usize + self.port1.is_some() as usize
    }
}

/// The Mirror allocator for one 2×2 module.
///
/// `requests[p][d]` states whether input port `p` holds at least one flit
/// (its per-direction local arbitration winner) wanting output slot `d`.
///
/// # Examples
///
/// ```
/// use noc_arbiter::MirrorAllocator;
/// let mut alloc = MirrorAllocator::new();
/// // Port 0 wants East (slot 0); port 1 wants West (slot 1): both win.
/// let g = alloc.allocate([[true, false], [false, true]]);
/// assert_eq!(g.port0, Some(0));
/// assert_eq!(g.port1, Some(1));
/// assert_eq!(g.matches(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MirrorAllocator {
    /// The single 2:1 global arbiter of Fig 4 (port 1's direction choice;
    /// port 2 needs none thanks to the Mirroring Effect).
    global: RoundRobinArbiter,
}

impl MirrorAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        MirrorAllocator { global: RoundRobinArbiter::new(2) }
    }

    /// Performs one cycle of mirrored switch allocation.
    ///
    /// The decision logic follows Fig 4: port 0's winning direction is
    /// decided by the 2:1 global arbiter; port 1 is granted the opposite
    /// direction. State from port 1 feeds the global decision so that a
    /// choice that would strand a servable port-1 flit is avoided —
    /// yielding a maximal matching in every case.
    pub fn allocate(&mut self, requests: [[bool; 2]; 2]) -> MirrorGrant {
        let [p0, p1] = requests;
        let p0_dir = match (p0[0], p0[1]) {
            (false, false) => None,
            (true, false) => Some(0),
            (false, true) => Some(1),
            (true, true) => {
                // Port 0 could take either output. Maximal matching: take
                // the one port 1 does NOT need; if port 1 needs both or
                // neither, fall back to the rotating global arbiter.
                match (p1[0], p1[1]) {
                    (true, false) => Some(1),
                    (false, true) => Some(0),
                    _ => self.global.arbitrate(0b11),
                }
            }
        };
        let p1_dir = match p0_dir {
            // The Mirroring Effect: port 1 gets the opposite direction.
            Some(d) => {
                let mirror = 1 - d;
                p1[mirror].then_some(mirror)
            }
            // Port 0 idle: port 1 may take any requested direction.
            None => match (p1[0], p1[1]) {
                (false, false) => None,
                (true, false) => Some(0),
                (false, true) => Some(1),
                (true, true) => self.global.arbitrate(0b11),
            },
        };
        MirrorGrant { port0: p0_dir, port1: p1_dir }
    }
}

impl Default for MirrorAllocator {
    fn default() -> Self {
        Self::new()
    }
}

/// Counts the maximum matching size achievable for a 2×2 request
/// pattern; used to verify the allocator's maximal-matching guarantee.
pub fn max_matching_2x2(requests: [[bool; 2]; 2]) -> usize {
    let mut best = 0;
    // Enumerate the nine possible assignments (each port: none/slot0/slot1).
    for a0 in [None, Some(0), Some(1)] {
        for a1 in [None, Some(0), Some(1)] {
            let valid0 = a0.map_or(true, |d: usize| requests[0][d]);
            let valid1 = a1.map_or(true, |d: usize| requests[1][d]);
            let disjoint = a0.is_none() || a1.is_none() || a0 != a1;
            if valid0 && valid1 && disjoint {
                best = best.max(a0.is_some() as usize + a1.is_some() as usize);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_patterns() -> impl Iterator<Item = [[bool; 2]; 2]> {
        (0u8..16).map(|bits| [[bits & 1 != 0, bits & 2 != 0], [bits & 4 != 0, bits & 8 != 0]])
    }

    #[test]
    fn always_maximal_matching() {
        let mut alloc = MirrorAllocator::new();
        for pattern in all_patterns() {
            // Run each pattern several times so both global-arbiter
            // states are exercised.
            for _ in 0..3 {
                let g = alloc.allocate(pattern);
                assert_eq!(
                    g.matches(),
                    max_matching_2x2(pattern),
                    "pattern {pattern:?} produced non-maximal grant {g:?}"
                );
            }
        }
    }

    #[test]
    fn grants_are_conflict_free_and_backed_by_requests() {
        let mut alloc = MirrorAllocator::new();
        for pattern in all_patterns() {
            let g = alloc.allocate(pattern);
            if let Some(d) = g.port0 {
                assert!(pattern[0][d]);
            }
            if let Some(d) = g.port1 {
                assert!(pattern[1][d]);
            }
            if let (Some(a), Some(b)) = (g.port0, g.port1) {
                assert_ne!(a, b, "two ports granted the same output");
            }
        }
    }

    #[test]
    fn conflicting_single_direction_grants_port0() {
        let mut alloc = MirrorAllocator::new();
        // Both ports want only slot 0: global arbitration happens at
        // port 0's side, so port 0 wins and port 1 is blocked.
        let g = alloc.allocate([[true, false], [true, false]]);
        assert_eq!(g.port0, Some(0));
        assert_eq!(g.port1, None);
    }

    #[test]
    fn both_want_both_alternates_via_global_arbiter() {
        let mut alloc = MirrorAllocator::new();
        let g1 = alloc.allocate([[true, true], [true, true]]);
        let g2 = alloc.allocate([[true, true], [true, true]]);
        assert_eq!(g1.matches(), 2);
        assert_eq!(g2.matches(), 2);
        assert_ne!(g1.port0, g2.port0, "rotating priority alternates the choice");
    }

    #[test]
    fn idle_port0_frees_port1() {
        let mut alloc = MirrorAllocator::new();
        let g = alloc.allocate([[false, false], [true, false]]);
        assert_eq!(g.port0, None);
        assert_eq!(g.port1, Some(0));
    }

    #[test]
    fn mirroring_effect_assigns_opposite_direction() {
        let mut alloc = MirrorAllocator::new();
        // Port 0 wants slot 0 only; port 1 wants both. Port 1 must be
        // granted the mirrored slot 1.
        let g = alloc.allocate([[true, false], [true, true]]);
        assert_eq!(g.port0, Some(0));
        assert_eq!(g.port1, Some(1));
    }

    #[test]
    fn max_matching_reference_values() {
        assert_eq!(max_matching_2x2([[false, false], [false, false]]), 0);
        assert_eq!(max_matching_2x2([[true, false], [true, false]]), 1);
        assert_eq!(max_matching_2x2([[true, true], [true, true]]), 2);
        assert_eq!(max_matching_2x2([[true, false], [false, true]]), 2);
    }
}
