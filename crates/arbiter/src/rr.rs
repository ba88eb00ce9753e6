//! Round-robin arbitration.

/// A rotating-priority (round-robin) arbiter over a fixed number of
/// requesters, the building block of the paper's VA and SA units.
///
/// Requests arrive as one `u64` word, bit `i` set when requester `i`
/// asserts its line. The arbiter grants the first requester strictly
/// after the previous winner in circular order, which guarantees strong
/// fairness: a persistent requester is served within `n` arbitrations.
///
/// # Examples
///
/// ```
/// use noc_arbiter::RoundRobinArbiter;
/// let mut arb = RoundRobinArbiter::new(3);
/// assert_eq!(arb.arbitrate(0b011), Some(0));
/// // Requester 0 just won, so 1 now has priority.
/// assert_eq!(arb.arbitrate(0b011), Some(1));
/// assert_eq!(arb.arbitrate(0), None);
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    n: usize,
    /// Index of the most recent winner; the search starts after it.
    last: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64` (one request bit per requester).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "an arbiter needs at least one requester");
        assert!(n <= 64, "an arbiter's requests must fit one u64 word");
        RoundRobinArbiter { n, last: n - 1 }
    }

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `false`; an arbiter always has at least one requester line.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grants one of the requesters set in `requests`, rotating priority
    /// past the winner. Returns `None` when no bit is set.
    ///
    /// The winner is the lowest set bit at or above `last + 1` (wrapped
    /// to 0 past the top), or else the lowest set bit overall: the same
    /// requester a circular walk from `last + 1` would meet first.
    pub fn arbitrate(&mut self, requests: u64) -> Option<usize> {
        debug_assert!(self.n == 64 || requests >> self.n == 0, "request bit beyond the width");
        if requests == 0 {
            return None;
        }
        let start = if self.last + 1 == self.n { 0 } else { self.last + 1 };
        let after = requests & (u64::MAX << start);
        let winner = if after != 0 { after } else { requests }.trailing_zeros() as usize;
        self.last = winner;
        Some(winner)
    }
}

/// The `&[bool]` circular walk the word arbiter replaced, kept as the
/// test oracle for every word-form decision in this crate.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct WalkArbiter {
    /// Index of the most recent winner.
    pub(crate) last: usize,
}

#[cfg(test)]
impl WalkArbiter {
    pub(crate) fn new(n: usize) -> Self {
        WalkArbiter { last: n - 1 }
    }

    pub(crate) fn arbitrate(&mut self, requests: &[bool]) -> Option<usize> {
        let n = requests.len();
        let winner = (1..=n).map(|off| (self.last + off) % n).find(|&i| requests[i])?;
        self.last = winner;
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::rng::SmallRng;

    fn check_against_walk(n: usize, last: usize, word: u64) {
        let mut arb = RoundRobinArbiter { n, last };
        let mut walk = WalkArbiter { last };
        let lines: Vec<bool> = (0..n).map(|i| word >> i & 1 != 0).collect();
        let case = || format!("n {n}, last {last}, requests {word:#b}");
        assert_eq!(arb.arbitrate(word), walk.arbitrate(&lines), "{}", case());
        assert_eq!(arb.last, walk.last, "{}", case());
    }

    #[test]
    fn word_arbiter_matches_walk_exhaustively() {
        for n in 1..=12 {
            for last in 0..n {
                for word in 0..1u64 << n {
                    check_against_walk(n, last, word);
                }
            }
        }
    }

    #[test]
    fn word_arbiter_matches_walk_at_full_width() {
        let mut rng = SmallRng::seed_from_u64(0x64);
        for last in 0..64 {
            for _ in 0..64 {
                let word = rng.next_u64() | 1 << 63;
                check_against_walk(64, last, word);
                check_against_walk(64, last, word & rng.next_u64() | 1 << 63);
                check_against_walk(64, last, 1 << 63);
            }
        }
    }

    #[test]
    fn grants_only_requesters() {
        let mut arb = RoundRobinArbiter::new(4);
        for _ in 0..16 {
            let g = arb.arbitrate(0b1010).unwrap();
            assert!(g == 1 || g == 3);
        }
    }

    #[test]
    fn rotates_among_persistent_requesters() {
        let mut arb = RoundRobinArbiter::new(3);
        let seq: Vec<_> = (0..6).map(|_| arb.arbitrate(0b111).unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn no_request_no_grant() {
        let mut arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.arbitrate(0), None);
        // A request-free cycle leaves priority where it was.
        assert_eq!(arb.arbitrate(0b11), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one requester")]
    fn zero_width_panics() {
        let _ = RoundRobinArbiter::new(0);
    }

    #[test]
    #[should_panic(expected = "fit one u64 word")]
    fn over_wide_panics() {
        let _ = RoundRobinArbiter::new(65);
    }

    #[test]
    fn fairness_bound() {
        // A persistent requester is served within n arbitrations even
        // under full load.
        let n = 8;
        let mut arb = RoundRobinArbiter::new(n);
        let mut since_served = vec![0usize; n];
        for _ in 0..100 {
            let g = arb.arbitrate(0xFF).unwrap();
            for (i, s) in since_served.iter_mut().enumerate() {
                if i == g {
                    *s = 0;
                } else {
                    *s += 1;
                    assert!(*s < n, "requester {i} starved");
                }
            }
        }
    }
}
