//! A fixed-capacity bitset used for adjacency rows in the MIS solver.

/// Fixed-size bitset over `0..capacity`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    blocks: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Empty set with room for `capacity` elements.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            blocks: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Set with every element in `0..capacity` present.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        for b in &mut s.blocks {
            *b = u64::MAX;
        }
        // Clear bits beyond capacity in the last block.
        let extra = s.blocks.len() * 64 - capacity;
        if extra > 0 {
            if let Some(last) = s.blocks.last_mut() {
                *last >>= extra;
            }
        }
        s
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.blocks[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.blocks[i / 64] &= !(1 << (i % 64));
    }

    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        self.blocks[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of elements present.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Remove every element also present in `other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// Keep only elements also present in `other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// Index of the lowest element, if any.
    pub fn first(&self) -> Option<usize> {
        for (bi, &b) in self.blocks.iter().enumerate() {
            if b != 0 {
                return Some(bi * 64 + b.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterate over elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &b)| {
            let mut bits = b;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let t = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(bi * 64 + t)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(100);
        assert!(!s.contains(63));
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert!(s.contains(63) && s.contains(64) && s.contains(99));
        assert_eq!(s.len(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn full_respects_capacity() {
        let s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(0) && s.contains(69));
    }

    #[test]
    fn full_with_multiple_of_64() {
        let s = BitSet::full(128);
        assert_eq!(s.len(), 128);
    }

    #[test]
    fn subtract_and_intersect() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        for i in 0..5 {
            a.insert(i);
        }
        for i in 3..8 {
            b.insert(i);
        }
        let mut c = a.clone();
        c.subtract(&b);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn iter_ascending() {
        let mut s = BitSet::new(200);
        for i in [150, 3, 77, 64] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 77, 150]);
        assert_eq!(s.first(), Some(3));
    }

    #[test]
    fn empty_set() {
        let s = BitSet::new(10);
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
        assert_eq!(s.iter().count(), 0);
        let z = BitSet::new(0);
        assert!(z.is_empty());
    }
}
