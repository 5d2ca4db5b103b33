//! A set of small indices as hierarchical occupancy words: the ready set
//! of the list scheduler (indexed by rank) and the score buckets of the
//! cache simulator's optimized fetch (indexed by instruction).

/// A set of indices `0..n` as hierarchical 64-bit occupancy words.
///
/// Bit `i % 64` of `levels[0][i / 64]` marks index `i`, and bit `w % 64`
/// of `levels[k + 1][w / 64]` marks a non-zero word `w` of `levels[k]`.
/// The top level is a single word. Insert and remove stop climbing as
/// soon as a word's emptiness is unchanged, and the minimum descends
/// from the top by trailing zeros, so each takes at most one word
/// operation per level: ⌈log₆₄ n⌉ (one level up to 64 indices, two up to
/// 4096, three up to 262 144).
///
/// # Examples
///
/// ```
/// use cqla_circuit::IndexSet;
///
/// let mut set = IndexSet::new(5000);
/// set.insert(4999);
/// set.insert(70);
/// assert_eq!(set.first(), Some(70));
/// set.remove(70);
/// assert_eq!(set.first(), Some(4999));
/// ```
#[derive(Debug, Clone)]
pub struct IndexSet {
    levels: Vec<Vec<u64>>,
}

impl IndexSet {
    /// An empty set over the indices `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut levels = Vec::new();
        let mut len = n.max(1);
        loop {
            let words = len.div_ceil(64);
            levels.push(vec![0u64; words]);
            if words == 1 {
                return Self { levels };
            }
            len = words;
        }
    }

    /// Adds `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the set's range.
    pub fn insert(&mut self, mut i: usize) {
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            let was_empty = *word == 0;
            *word |= 1 << (i % 64);
            if !was_empty {
                return;
            }
            i /= 64;
        }
    }

    /// Removes `i` (a no-op if it is absent).
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the set's range.
    pub fn remove(&mut self, mut i: usize) {
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            *word &= !(1 << (i % 64));
            if *word != 0 {
                return;
            }
            i /= 64;
        }
    }

    /// The smallest index in the set. Only the top word can be zero on
    /// the way down.
    #[must_use]
    pub fn first(&self) -> Option<usize> {
        let mut i = 0;
        for level in self.levels.iter().rev() {
            let word = level[i];
            if word == 0 {
                return None;
            }
            i = i * 64 + word.trailing_zeros() as usize;
        }
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_set_tracks_its_minimum_across_levels() {
        for n in [1usize, 64, 65, 4096, 4097, 300_000] {
            let mut set = IndexSet::new(n);
            assert_eq!(set.first(), None, "n={n}");
            let mut members = vec![n - 1, n / 2, 64.min(n - 1), 63.min(n - 1), 0];
            for &i in &members {
                set.insert(i);
            }
            members.sort_unstable();
            members.dedup();
            for &i in &members {
                assert_eq!(set.first(), Some(i), "n={n}");
                set.remove(i);
            }
            assert_eq!(set.first(), None, "n={n}");
        }
    }
}
