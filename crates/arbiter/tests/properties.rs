//! Property tests for the arbiter crate: seeded random sweeps, plus an
//! exhaustive sweep of the 2×2 mirror allocator.

use noc_arbiter::{
    max_matching_2x2, MirrorAllocator, RoundRobinArbiter, SeparableAllocator, SwitchRequest,
};
use noc_core::rng::SmallRng;

/// Random cases per property; case `i` draws from `SmallRng` seed `i`.
const CASES: u64 = 256;

/// A random request word over `n` requesters.
fn word(rng: &mut SmallRng, n: usize) -> u64 {
    (0..n).filter(|_| rng.gen_bool(0.5)).fold(0, |w, i| w | 1 << i)
}

/// A round-robin grant always points at an asserted request line.
#[test]
fn rr_grant_subset_of_requests() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(1..12usize);
        let mut arb = RoundRobinArbiter::new(n);
        for _ in 0..rng.gen_range(1..50usize) {
            let requests = word(&mut rng, n);
            match arb.arbitrate(requests) {
                Some(g) => {
                    assert!(requests >> g & 1 != 0, "case seed {seed}: grant {g} not requested")
                }
                None => assert_eq!(requests, 0, "case seed {seed}: no grant"),
            }
        }
    }
}

/// Under any request sequence in which line `i` is always asserted,
/// line `i` is granted at least once every `n` arbitrations.
#[test]
fn rr_no_starvation() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(2..10usize);
        let persistent = rng.gen_range(0..n);
        let mut arb = RoundRobinArbiter::new(n);
        let mut dry = 0usize;
        for _ in 0..30 {
            let requests = word(&mut rng, n) | 1 << persistent;
            let g = arb.arbitrate(requests).expect("a request is always asserted");
            if g == persistent {
                dry = 0;
            } else {
                dry += 1;
                assert!(dry < n, "case seed {seed}: persistent requester starved for {dry} rounds");
            }
        }
    }
}

fn decode(bits: u8) -> [[bool; 2]; 2] {
    [[bits & 1 != 0, bits & 2 != 0], [bits & 4 != 0, bits & 8 != 0]]
}

/// Checks one mirror allocation of `pattern` after `warmup`.
fn check_mirror(warmup: &[u8], pattern: u8) {
    let mut alloc = MirrorAllocator::new();
    for &w in warmup {
        let _ = alloc.allocate(decode(w));
    }
    let p = decode(pattern);
    let g = alloc.allocate(p);
    let case = || format!("warmup {warmup:?} pattern {pattern:#06b}");
    assert_eq!(g.matches(), max_matching_2x2(p), "{}", case());
    if let Some(d) = g.port0 {
        assert!(p[0][d], "{}", case());
    }
    if let Some(d) = g.port1 {
        assert!(p[1][d], "{}", case());
    }
    if let (Some(a), Some(b)) = (g.port0, g.port1) {
        assert_ne!(a, b, "{}", case());
    }
}

/// The mirror allocator always produces a maximal matching, from any
/// internal arbiter state: all 16 request patterns after every warmup
/// of up to two allocations, then after seeded warmups of up to eight.
#[test]
fn mirror_always_maximal() {
    for pattern in 0u8..16 {
        check_mirror(&[], pattern);
        for a in 0u8..16 {
            check_mirror(&[a], pattern);
            for b in 0u8..16 {
                check_mirror(&[a, b], pattern);
            }
        }
    }
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(3..=8usize);
        let warmup: Vec<u8> = (0..len).map(|_| rng.gen_range(0..16u32) as u8).collect();
        for pattern in 0u8..16 {
            check_mirror(&warmup, pattern);
        }
    }
}

/// Separable allocation never grants conflicting connections and
/// only grants requested ones.
#[test]
fn separable_grants_valid() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let inputs = rng.gen_range(1..6usize);
        let outputs = rng.gen_range(1..6usize);
        let vcs = rng.gen_range(1..4usize);
        let mut alloc = SeparableAllocator::new(inputs, outputs, vcs);
        let requests: Vec<SwitchRequest> = (0..rng.gen_range(0..20usize))
            .map(|_| SwitchRequest {
                input: rng.gen_range(0..inputs),
                output: rng.gen_range(0..outputs),
                vc: rng.gen_range(0..vcs),
            })
            .collect();
        let (grants, _) = alloc.allocate(&requests);
        let mut in_seen = std::collections::HashSet::new();
        let mut out_seen = std::collections::HashSet::new();
        for g in &grants {
            assert!(in_seen.insert(g.input), "case seed {seed}: input granted twice");
            assert!(out_seen.insert(g.output), "case seed {seed}: output granted twice");
            assert!(
                requests.iter().any(|r| r.input == g.input && r.output == g.output && r.vc == g.vc),
                "case seed {seed}: unrequested grant {g:?}"
            );
        }
        // If there was any request, at least one grant must be issued
        // (the allocator is work-conserving at the request level).
        if !requests.is_empty() {
            assert!(!grants.is_empty(), "case seed {seed}: no grant for {requests:?}");
        }
    }
}
