//! Wake-set bitsets for the simulator's sleep/wake router scheduling.
//!
//! The network keeps one "awake" bit per router; a router whose bit is
//! clear is known-quiescent and may be skipped entirely by the cycle
//! kernels. [`WakeSet`] packs those bits into `u64` words so a 1024-node
//! mesh is a 16-word scan instead of a 1024-byte one, and awake indices
//! are recovered with `trailing_zeros` rather than a per-element branch.
//!
//! Invariant: bits at positions `>= len` are always zero, so popcounts
//! and word scans never need a tail mask.

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// A fixed-length bitset of router wake flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WakeSet {
    words: Vec<u64>,
    len: usize,
}

/// Number of words needed for `len` bits.
fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

impl WakeSet {
    /// A set of `len` routers, all awake (the simulator's start state:
    /// every router must step at least once to discover quiescence).
    pub fn all_awake(len: usize) -> Self {
        let mut words = vec![u64::MAX; words_for(len)];
        if let Some(last) = words.last_mut() {
            let tail = len % WORD_BITS;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        WakeSet { words, len }
    }

    /// A set of `len` routers, all asleep.
    pub fn all_asleep(len: usize) -> Self {
        WakeSet { words: vec![0; words_for(len)], len }
    }

    /// Number of routers tracked (bit length, not words).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set tracks zero routers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks router `i` awake.
    #[inline]
    pub fn wake(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Marks router `i` asleep.
    #[inline]
    pub fn sleep(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Sets router `i`'s flag from a bool (bridge for code that used to
    /// assign into a `Vec<bool>`).
    #[inline]
    pub fn set(&mut self, i: usize, awake: bool) {
        if awake {
            self.wake(i);
        } else {
            self.sleep(i);
        }
    }

    /// True when router `i` is awake.
    #[inline]
    pub fn is_awake(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 != 0
    }

    /// Number of storage words holding at least one awake bit — the
    /// profiler's wake-word occupancy gauge.
    pub fn occupied_words(&self) -> usize {
        self.words.iter().filter(|&&w| w != 0).count()
    }

    /// The backing words (low bit of word 0 is router 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Copy of word `w`; kernels snapshot a word before iterating it so
    /// `sleep` calls on the current word don't perturb the scan.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64* — cheap deterministic bit soup for property tests.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Awake routers, counted from the raw words (popcount).
    fn popcount(set: &WakeSet) -> usize {
        set.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn all_awake_matches_dense_model() {
        for len in [0, 1, 63, 64, 65, 100, 127, 128, 129, 1024] {
            let set = WakeSet::all_awake(len);
            assert_eq!(set.len(), len);
            assert_eq!(popcount(&set), len, "len {len}");
            assert!((0..len).all(|i| set.is_awake(i)), "len {len}");
            // Invariant: no bits above `len` (popcount already proves it,
            // but check the raw tail word too).
            if len % 64 != 0 {
                assert_eq!(set.words().last().unwrap() >> (len % 64), 0);
            }
        }
    }

    #[test]
    fn random_patterns_match_vec_bool_sweep() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in [1usize, 5, 63, 64, 65, 100, 127, 128, 129, 300, 1000] {
            for _round in 0..20 {
                let mut set = WakeSet::all_asleep(len);
                let mut model = vec![false; len];
                // Random interleaving of wakes and sleeps.
                for _ in 0..2 * len {
                    let r = xorshift(&mut state);
                    let i = (r as usize >> 8) % len;
                    let awake = r & 1 == 0;
                    set.set(i, awake);
                    model[i] = awake;
                }
                assert_eq!(popcount(&set), model.iter().filter(|&&a| a).count());
                for (i, &awake) in model.iter().enumerate() {
                    assert_eq!(set.is_awake(i), awake, "membership at {i}, len {len}");
                }
            }
        }
    }

    #[test]
    fn partial_last_word_edges() {
        // Lengths straddling the word boundary: only in-range bits may
        // ever be set, and waking the last router works at every length.
        for len in [100usize, 127, 128, 129] {
            let mut set = WakeSet::all_asleep(len);
            set.wake(len - 1);
            assert!(set.is_awake(len - 1));
            assert_eq!(popcount(&set), 1);
            assert_eq!(set.occupied_words(), 1);
            set.sleep(len - 1);
            assert_eq!(popcount(&set), 0);
            assert_eq!(set.occupied_words(), 0);
        }
    }

    #[test]
    fn wake_is_idempotent_and_sleep_is_precise() {
        let mut set = WakeSet::all_asleep(130);
        set.wake(64);
        set.wake(64);
        set.wake(65);
        assert_eq!(popcount(&set), 2);
        set.sleep(64);
        assert!(!set.is_awake(64));
        assert!(set.is_awake(65));
    }

    #[test]
    fn occupied_words_counts_nonzero_words() {
        let mut set = WakeSet::all_asleep(256);
        assert_eq!(set.occupied_words(), 0);
        set.wake(0);
        set.wake(1);
        set.wake(255);
        assert_eq!(set.occupied_words(), 2);
        assert_eq!(set.words().len(), 4);
    }
}
