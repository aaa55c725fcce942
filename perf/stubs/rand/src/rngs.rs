//! `StdRng`: ChaCha with 12 rounds, generated four blocks at a time.

use crate::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;
const BUF_BLOCKS: usize = 4;
const BUF_WORDS: usize = BLOCK_WORDS * BUF_BLOCKS;

pub(crate) fn initial_state(key: &[u32; 8], tail: [u32; 4]) -> [u32; 16] {
    let mut s = [0u32; 16];
    s[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    s[4..12].copy_from_slice(key);
    s[12..].copy_from_slice(&tail);
    s
}

#[inline(always)]
fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

pub(crate) fn chacha_block(state: &[u32; 16], double_rounds: usize) -> [u32; 16] {
    let mut x = *state;
    for _ in 0..double_rounds {
        quarter(&mut x, 0, 4, 8, 12);
        quarter(&mut x, 1, 5, 9, 13);
        quarter(&mut x, 2, 6, 10, 14);
        quarter(&mut x, 3, 7, 11, 15);
        quarter(&mut x, 0, 5, 10, 15);
        quarter(&mut x, 1, 6, 11, 12);
        quarter(&mut x, 2, 7, 8, 13);
        quarter(&mut x, 3, 4, 9, 14);
    }
    for (o, s) in x.iter_mut().zip(state) {
        *o = o.wrapping_add(*s);
    }
    x
}

/// The workspace's standard generator.
#[derive(Clone, Debug)]
pub struct StdRng {
    key: [u32; 8],
    counter: u64,
    buf: [u32; BUF_WORDS],
    index: usize,
}

impl StdRng {
    fn refill(&mut self) {
        for b in 0..BUF_BLOCKS {
            let c = self.counter.wrapping_add(b as u64);
            let state = initial_state(&self.key, [c as u32, (c >> 32) as u32, 0, 0]);
            let block = chacha_block(&state, 6);
            self.buf[b * BLOCK_WORDS..(b + 1) * BLOCK_WORDS].copy_from_slice(&block);
        }
        self.counter = self.counter.wrapping_add(BUF_BLOCKS as u64);
    }
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        Self {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

impl RngCore for StdRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
            self.index = 0;
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.index;
        if i + 1 < BUF_WORDS {
            self.index = i + 2;
            u64::from(self.buf[i + 1]) << 32 | u64::from(self.buf[i])
        } else if i >= BUF_WORDS {
            self.refill();
            self.index = 2;
            u64::from(self.buf[1]) << 32 | u64::from(self.buf[0])
        } else {
            let lo = u64::from(self.buf[BUF_WORDS - 1]);
            self.refill();
            self.index = 1;
            u64::from(self.buf[0]) << 32 | lo
        }
    }
}
