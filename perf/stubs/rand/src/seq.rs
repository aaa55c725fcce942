//! Slice shuffling and choosing, and distinct index sampling.

use crate::{Rng, RngCore};

fn gen_index<R: RngCore + ?Sized>(rng: &mut R, ubound: usize) -> usize {
    if ubound <= u32::MAX as usize {
        rng.gen_range(0..ubound as u32) as usize
    } else {
        rng.gen_range(0..ubound)
    }
}

pub trait SliceRandom {
    type Item;

    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

    /// Fisher–Yates, from the back.
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[gen_index(rng, self.len())])
        }
    }

    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            self.swap(i, gen_index(rng, i + 1));
        }
    }
}

pub mod index {
    use super::gen_index;
    use crate::RngCore;

    /// Distinct indices, in sampling order.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct IndexVec(Vec<usize>);

    impl IndexVec {
        pub fn len(&self) -> usize {
            self.0.len()
        }
        pub fn is_empty(&self) -> bool {
            self.0.is_empty()
        }
        pub fn into_vec(self) -> Vec<usize> {
            self.0
        }
        pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
            self.0.iter().copied()
        }
    }

    impl IntoIterator for IndexVec {
        type Item = usize;
        type IntoIter = std::vec::IntoIter<usize>;
        fn into_iter(self) -> Self::IntoIter {
            self.0.into_iter()
        }
    }

    /// `amount` distinct indices below `length`: a partial Fisher–Yates over
    /// the index table when the sample is a large share of it, Floyd's
    /// algorithm otherwise.
    pub fn sample<R: RngCore + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
        assert!(amount <= length, "sample larger than population");
        if amount.saturating_mul(37) > length {
            let mut indices: Vec<usize> = (0..length).collect();
            for i in 0..amount {
                let j = i + gen_index(rng, length - i);
                indices.swap(i, j);
            }
            indices.truncate(amount);
            return IndexVec(indices);
        }
        let mut picked = std::collections::HashSet::with_capacity(amount);
        let mut out = Vec::with_capacity(amount);
        for j in length - amount..length {
            let t = gen_index(rng, j + 1);
            let pick = if picked.insert(t) {
                t
            } else {
                picked.insert(j);
                j
            };
            out.push(pick);
        }
        IndexVec(out)
    }
}
