//! Separable (input-first) two-stage switch allocation, used by the
//! generic router's monolithic SA and by the Path-Sensitive router's
//! decomposed crossbar.

use crate::rr::RoundRobinArbiter;

/// One virtual channel's bid for crossbar passage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchRequest {
    /// Crossbar input port index.
    pub input: usize,
    /// Requested crossbar output port index.
    pub output: usize,
    /// VC index within the input port (round-robined by stage 1).
    pub vc: usize,
}

/// A granted crossbar connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchGrant {
    /// Winning input port.
    pub input: usize,
    /// Granted output port.
    pub output: usize,
    /// Winning VC within the input port.
    pub vc: usize,
}

/// Arbitration-effort statistics for one allocation pass (consumed by
/// the energy model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocationEffort {
    /// Stage-1 (per input port) arbitration operations performed.
    pub local_ops: u64,
    /// Stage-2 (per output port) arbitration operations performed.
    pub global_ops: u64,
}

/// Largest crossbar dimension a [`SeparableAllocator`] supports: its
/// per-port request words live on the stack. The widest crossbar in the
/// workspace is the generic router's 5×5.
const MAX_PORTS: usize = 16;

/// Input-first separable allocator: stage 1 picks one VC per input port
/// (a `v:1` arbiter per port), stage 2 picks one input per output port
/// (a `P:1` arbiter per output). The classic design the paper's Fig 2
/// critiques for its arbitration depth.
#[derive(Debug, Clone)]
pub struct SeparableAllocator {
    input_arbs: Vec<RoundRobinArbiter>,
    output_arbs: Vec<RoundRobinArbiter>,
    vcs_per_input: usize,
}

impl SeparableAllocator {
    /// Creates an allocator for `inputs` ports of `vcs_per_input` VCs
    /// each, switching onto `outputs` ports.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, if `inputs` or `outputs`
    /// exceeds 16, or if `vcs_per_input` exceeds 64.
    pub fn new(inputs: usize, outputs: usize, vcs_per_input: usize) -> Self {
        assert!(
            inputs > 0 && outputs > 0 && vcs_per_input > 0,
            "allocator dimensions must be non-zero"
        );
        assert!(inputs <= MAX_PORTS && outputs <= MAX_PORTS, "crossbar wider than 16 ports");
        SeparableAllocator {
            input_arbs: (0..inputs).map(|_| RoundRobinArbiter::new(vcs_per_input)).collect(),
            output_arbs: (0..outputs).map(|_| RoundRobinArbiter::new(inputs)).collect(),
            vcs_per_input,
        }
    }

    /// Number of crossbar input ports.
    pub fn inputs(&self) -> usize {
        self.input_arbs.len()
    }

    /// Number of crossbar output ports.
    pub fn outputs(&self) -> usize {
        self.output_arbs.len()
    }

    /// Performs one allocation pass over `requests`, returning the
    /// conflict-free grant set and the arbitration effort expended.
    ///
    /// Convenience wrapper over [`SeparableAllocator::allocate_into`]
    /// that allocates a fresh grant vector; the simulator's hot loop
    /// uses `allocate_into` with a reusable buffer instead.
    ///
    /// # Panics
    ///
    /// Panics if a request indexes outside the allocator's dimensions.
    pub fn allocate(&mut self, requests: &[SwitchRequest]) -> (Vec<SwitchGrant>, AllocationEffort) {
        let mut grants = Vec::new();
        let effort = self.allocate_into(requests, &mut grants);
        (grants, effort)
    }

    /// Performs one allocation pass over `requests`, writing the
    /// conflict-free grant set into the caller-owned `grants` buffer
    /// (cleared on entry, in output order) and returning the
    /// arbitration effort. All scratch lives on the stack.
    ///
    /// Stage 1 arbitrates one VC word per input, stage 2 one input word
    /// per output. When a `(input, vc)` pair is listed more than once,
    /// its first listing decides the output it asks for.
    ///
    /// # Panics
    ///
    /// Panics if a request indexes outside the allocator's dimensions.
    pub fn allocate_into(
        &mut self,
        requests: &[SwitchRequest],
        grants: &mut Vec<SwitchGrant>,
    ) -> AllocationEffort {
        grants.clear();
        let mut effort = AllocationEffort::default();
        if requests.is_empty() {
            return effort;
        }
        let (inputs, outputs) = (self.input_arbs.len(), self.output_arbs.len());
        let mut vc_words = [0u64; MAX_PORTS];
        for r in requests {
            assert!(r.input < inputs, "input index out of range");
            assert!(r.vc < self.vcs_per_input, "vc index out of range");
            assert!(r.output < outputs, "output index out of range");
            vc_words[r.input] |= 1 << r.vc;
        }
        // Stage 1: per input port, round-robin over requesting VCs.
        let mut winner_vc = [0u8; MAX_PORTS];
        // Inputs whose winner has not met its first listing yet.
        let mut unresolved = 0u64;
        for (input, arb) in self.input_arbs.iter_mut().enumerate() {
            if let Some(vc) = arb.arbitrate(vc_words[input]) {
                effort.local_ops += 1;
                winner_vc[input] = vc as u8;
                unresolved |= 1 << input;
            }
        }
        // Each winner asks for the output of its first listing.
        let mut input_words = [0u64; MAX_PORTS];
        for r in requests {
            if unresolved == 0 {
                break;
            }
            let bit = 1u64 << r.input;
            if unresolved & bit != 0 && winner_vc[r.input] as usize == r.vc {
                unresolved &= !bit;
                input_words[r.output] |= bit;
            }
        }
        // Stage 2: per output port, round-robin over stage-1 winners.
        for (output, arb) in self.output_arbs.iter_mut().enumerate() {
            if let Some(input) = arb.arbitrate(input_words[output]) {
                effort.global_ops += 1;
                grants.push(SwitchGrant { input, output, vc: winner_vc[input] as usize });
            }
        }
        effort
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::WalkArbiter;
    use noc_core::rng::SmallRng;

    fn req(input: usize, output: usize, vc: usize) -> SwitchRequest {
        SwitchRequest { input, output, vc }
    }

    #[test]
    fn grants_are_conflict_free() {
        let mut alloc = SeparableAllocator::new(5, 5, 3);
        let requests = vec![
            req(0, 2, 0),
            req(0, 2, 1),
            req(1, 2, 0),
            req(2, 3, 2),
            req(3, 3, 0),
            req(4, 0, 1),
        ];
        let (grants, effort) = alloc.allocate(&requests);
        // One grant max per input and per output.
        let mut inputs_seen = std::collections::HashSet::new();
        let mut outputs_seen = std::collections::HashSet::new();
        for g in &grants {
            assert!(inputs_seen.insert(g.input));
            assert!(outputs_seen.insert(g.output));
            assert!(requests.contains(&req(g.input, g.output, g.vc)));
        }
        assert!(effort.local_ops >= grants.len() as u64);
        assert!(effort.global_ops >= grants.len() as u64);
    }

    #[test]
    fn single_request_is_granted() {
        let mut alloc = SeparableAllocator::new(2, 2, 2);
        let (grants, _) = alloc.allocate(&[req(1, 0, 1)]);
        assert_eq!(grants, vec![SwitchGrant { input: 1, output: 0, vc: 1 }]);
    }

    #[test]
    fn empty_request_set() {
        let mut alloc = SeparableAllocator::new(2, 2, 2);
        let (grants, effort) = alloc.allocate(&[]);
        assert!(grants.is_empty());
        assert_eq!(effort, AllocationEffort::default());
    }

    #[test]
    fn head_of_line_blocking_is_possible() {
        // Input 0's stage-1 winner may ask for a contested output while
        // its other VC wanted a free one — the inefficiency the Mirroring
        // Effect avoids. Verify the allocator models it: with inputs 0
        // and 1 both preferring output 0, at most one wins output 0 and
        // output 1 can go idle even though a request for it existed.
        let mut alloc = SeparableAllocator::new(2, 2, 2);
        let requests = vec![req(0, 0, 0), req(0, 1, 1), req(1, 0, 0)];
        let mut idle_output1 = 0;
        for _ in 0..10 {
            let (grants, _) = alloc.allocate(&requests);
            if !grants.iter().any(|g| g.output == 1) {
                idle_output1 += 1;
            }
        }
        assert!(idle_output1 > 0, "expected occasional HoL blocking of output 1");
    }

    #[test]
    fn rotates_between_competing_inputs() {
        let mut alloc = SeparableAllocator::new(2, 1, 1);
        let requests = vec![req(0, 0, 0), req(1, 0, 0)];
        let winners: Vec<usize> = (0..4).map(|_| alloc.allocate(&requests).0[0].input).collect();
        assert_eq!(winners, vec![0, 1, 0, 1]);
    }

    /// The two-stage `Vec<bool>` allocator the word form replaced, kept
    /// as the oracle: stage 1 re-filters the request list per input and
    /// takes the first listing of the winning VC.
    struct TwoStage {
        input_arbs: Vec<WalkArbiter>,
        output_arbs: Vec<WalkArbiter>,
        vcs_per_input: usize,
    }

    impl TwoStage {
        fn new(inputs: usize, outputs: usize, vcs_per_input: usize) -> Self {
            TwoStage {
                input_arbs: (0..inputs).map(|_| WalkArbiter::new(vcs_per_input)).collect(),
                output_arbs: (0..outputs).map(|_| WalkArbiter::new(inputs)).collect(),
                vcs_per_input,
            }
        }

        fn allocate(&mut self, requests: &[SwitchRequest]) -> (Vec<SwitchGrant>, AllocationEffort) {
            let mut grants = Vec::new();
            let mut effort = AllocationEffort::default();
            let mut stage1 = vec![None; self.input_arbs.len()];
            for (input, arb) in self.input_arbs.iter_mut().enumerate() {
                let mut lines = vec![false; self.vcs_per_input];
                for r in requests.iter().filter(|r| r.input == input) {
                    lines[r.vc] = true;
                }
                if lines.contains(&true) {
                    effort.local_ops += 1;
                    let vc = arb.arbitrate(&lines).expect("a line is set");
                    stage1[input] =
                        requests.iter().find(|r| r.input == input && r.vc == vc).copied();
                }
            }
            for (output, arb) in self.output_arbs.iter_mut().enumerate() {
                let lines: Vec<bool> =
                    stage1.iter().map(|w| w.is_some_and(|r| r.output == output)).collect();
                if let Some(input) = arb.arbitrate(&lines) {
                    effort.global_ops += 1;
                    let vc = stage1[input].expect("stage-1 winner exists").vc;
                    grants.push(SwitchGrant { input, output, vc });
                }
            }
            (grants, effort)
        }
    }

    /// Seeded request sets in the benchmark's shape (each VC requests
    /// with probability one half), plus occasional repeat listings of a
    /// VC with another output.
    fn seeded_requests(
        rng: &mut SmallRng,
        inputs: usize,
        outputs: usize,
        vcs: usize,
    ) -> Vec<SwitchRequest> {
        let mut set = Vec::new();
        for input in 0..inputs {
            for vc in 0..vcs {
                if rng.gen_bool(0.5) {
                    set.push(req(input, rng.gen_range(0..outputs), vc));
                }
            }
        }
        if rng.gen_bool(0.25) && !set.is_empty() {
            let r = set[rng.gen_range(0..set.len())];
            set.push(req(r.input, rng.gen_range(0..outputs), r.vc));
        }
        set
    }

    #[test]
    fn word_allocator_matches_two_stage_oracle() {
        for (inputs, outputs, vcs) in [(5, 5, 1), (5, 5, 3), (5, 5, 12), (4, 4, 3), (2, 2, 3)] {
            let mut rng = SmallRng::seed_from_u64((inputs * 100 + outputs * 10 + vcs) as u64);
            let mut words = SeparableAllocator::new(inputs, outputs, vcs);
            let mut oracle = TwoStage::new(inputs, outputs, vcs);
            let mut grants = Vec::new();
            // Consecutive calls: each call's winners also pin the
            // arbiter state the previous call left behind.
            for call in 0..2_000 {
                let requests = seeded_requests(&mut rng, inputs, outputs, vcs);
                let effort = words.allocate_into(&requests, &mut grants);
                let (want, want_effort) = oracle.allocate(&requests);
                let case = || format!("{inputs}x{outputs}x{vcs} call {call}: {requests:?}");
                assert_eq!(grants, want, "{}", case());
                assert_eq!(effort, want_effort, "{}", case());
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimensions must be non-zero")]
    fn zero_dimension_panics() {
        let _ = SeparableAllocator::new(0, 1, 1);
    }
}
