//! A free-list of `f64` buffers recycled across autodiff tapes.
//!
//! Training rebuilds a [`Tape`](crate::Tape) every mini-batch, and each tape
//! holds a few dozen large node values and gradients that are all freed
//! together when the tape is dropped. Under glibc that allocation pattern —
//! many large buffers live at once, released in bulk — degenerates into
//! repeated `mmap`/`munmap` traffic, and the page faults on first touch cost
//! several times more than the arithmetic of the ops themselves. A
//! [`BufferPool`] breaks the cycle: a finished tape surrenders every buffer
//! back to the pool ([`Tape::into_pool`](crate::Tape::into_pool)) and the
//! next tape allocates from it ([`Tape::with_pool`](crate::Tape::with_pool)),
//! so steady-state training touches no allocator at all on the hot path.
//!
//! Pooling only changes where buffers come from, never what is written into
//! them — results are bit-identical with and without a pool.

use crate::Matrix;

/// Buffers below this element count are not worth pooling: small
/// allocations are served from the allocator's thread cache anyway, and
/// every tape produces a handful of scalars and bias rows that would
/// otherwise accumulate in the free list forever (each `take` scan then
/// degrades linearly with that garbage).
const MIN_POOLED_ELEMS: usize = 1024;

/// Hard cap on held buffers — a leak backstop, generously above the live
/// buffer count of one training tape.
const MAX_POOLED_BUFFERS: usize = 256;

/// A recycling free-list of flat `f64` buffers: a finished tape surrenders
/// its buffers here and the next tape allocates from them, with
/// bit-identical results.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<f64>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Number of buffers currently held.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Whether the pool holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Logical bytes held in the free list, each buffer counted at its last
    /// requested length (not its capacity) — deterministic across machines
    /// and allocators (see the `budget` crate).
    pub fn logical_bytes(&self) -> u64 {
        self.free
            .iter()
            .map(|b| b.len() as u64 * std::mem::size_of::<f64>() as u64)
            .sum()
    }

    /// Takes a buffer of exactly `len` elements, reusing the smallest held
    /// buffer whose capacity suffices (best fit), else allocating one with
    /// power-of-two capacity. The contents are
    /// unspecified — every element the caller exposes must be written
    /// first. Use [`BufferPool::zeros`] when the consumer accumulates.
    fn take(&mut self, len: usize) -> Vec<f64> {
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        for (i, buf) in self.free.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, _)) => {
                let mut buf = self.free.swap_remove(i);
                // Shrinking never touches memory; growing within capacity
                // only writes the tail gap. Stale leading values are fine by
                // the contract above.
                buf.resize(len, 0.0);
                buf
            }
            None => {
                // A fresh buffer gets the next power-of-two capacity, so a
                // later request of the same kind that is a little larger
                // still fits it. Shapes that vary from tape to tape (the
                // compressed batches of `icnet`) would otherwise miss on
                // every new maximum, take a buffer sized for another kind,
                // and leave one more buffer idle in the pool each time.
                let mut buf = Vec::with_capacity(len.next_power_of_two());
                buf.resize(len, 0.0);
                buf
            }
        }
    }

    /// A `rows x cols` matrix whose contents are unspecified stale values;
    /// the caller must overwrite every element (write-once kernels like
    /// [`Matrix::matmul_into`](crate::Matrix::matmul_into) do).
    pub fn alloc(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take(rows * cols))
    }

    /// A `rows x cols` all-zero matrix from the pool (for consumers that
    /// accumulate rather than overwrite).
    pub fn zeros(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut buf = self.take(rows * cols);
        buf.fill(0.0);
        Matrix::from_vec(rows, cols, buf)
    }

    /// Returns a matrix's buffer to the pool for reuse. Small buffers (and
    /// anything beyond the pool's cap) are dropped instead of held — see
    /// `MIN_POOLED_ELEMS`; retaining them would grow the free list without
    /// bound as tapes surrender scalars the next tape never asks for.
    pub fn absorb(&mut self, m: Matrix) {
        let buf = m.into_vec();
        if buf.capacity() >= MIN_POOLED_ELEMS && self.free.len() < MAX_POOLED_BUFFERS {
            self.free.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_reuses_absorbed_buffers() {
        let mut pool = BufferPool::new();
        pool.absorb(Matrix::zeros(64, 32));
        let m = pool.alloc(64, 32);
        assert_eq!(m.shape(), (64, 32));
        assert!(pool.is_empty(), "the held buffer was reused");
    }

    #[test]
    fn best_fit_prefers_the_smallest_sufficient_buffer() {
        let mut pool = BufferPool::new();
        pool.absorb(Matrix::zeros(4096, 1));
        pool.absorb(Matrix::zeros(1024, 1));
        let m = pool.alloc(1024, 1);
        assert_eq!(m.shape(), (1024, 1));
        // The 4096-element buffer is still available for a larger request.
        let big = pool.alloc(2048, 2);
        assert_eq!(big.shape(), (2048, 2));
        assert!(pool.is_empty());
    }

    #[test]
    fn zeros_are_zero_even_from_a_dirty_buffer() {
        let mut pool = BufferPool::new();
        pool.absorb(Matrix::from_fn(32, 32, |r, c| (r * 32 + c) as f64));
        let z = pool.zeros(32, 32);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn too_small_requests_leave_larger_buffers_alone() {
        let mut pool = BufferPool::new();
        pool.absorb(Matrix::zeros(32, 32));
        let m = pool.alloc(64, 64);
        assert_eq!(m.shape(), (64, 64));
        assert_eq!(pool.len(), 1, "the 32x32 buffer stays pooled");
    }

    #[test]
    fn shapes_that_vary_between_tapes_do_not_accumulate_buffers() {
        // Each "tape" takes one buffer whose size creeps up and one large
        // one, then returns both. The first buffer's power-of-two capacity
        // absorbs the creep, so the small request never takes the large
        // buffer and the pool holds two buffers throughout.
        let mut pool = BufferPool::new();
        for step in 0..20 {
            let small = pool.alloc(1100 + step * 10, 1);
            let large = pool.alloc(40_000, 1);
            pool.absorb(small);
            pool.absorb(large);
            assert_eq!(pool.len(), 2, "step {step}");
        }
    }

    #[test]
    fn logical_bytes_track_held_buffers() {
        let mut pool = BufferPool::new();
        assert_eq!(pool.logical_bytes(), 0);
        pool.absorb(Matrix::zeros(64, 32));
        assert_eq!(pool.logical_bytes(), 64 * 32 * 8);
        let taken = pool.alloc(64, 32);
        assert_eq!(pool.logical_bytes(), 0);
        assert_eq!(taken.logical_bytes(), 64 * 32 * 8);
    }

    #[test]
    fn small_buffers_are_not_retained() {
        // Scalars and bias rows churn through every tape; holding them
        // would grow the free list without bound (and degrade every scan).
        let mut pool = BufferPool::new();
        for _ in 0..100 {
            pool.absorb(Matrix::zeros(1, 1));
            pool.absorb(Matrix::zeros(1, 16));
        }
        assert!(pool.is_empty(), "sub-threshold buffers must be dropped");
    }
}
