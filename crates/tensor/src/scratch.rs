//! Reusable scratch-buffer pool for hot-path intermediates.
//!
//! The batched serving path used to allocate a fresh zero-filled `Matrix`
//! for every gather, aggregation, branch product, and level table of every
//! batch. [`ScratchPool`] keeps the backing `Vec<f32>` buffers of retired
//! intermediates and hands them back (cleared and re-zeroed, capacity
//! intact) on the next request, so steady-state serving performs no
//! allocator round-trips for its dense temporaries — which holds only while
//! every buffer recycled into a pool was leased from it (the engine's
//! `back_pool_is_steady_after_warm_up` test pins that).
//!
//! The pool is engine-owned and mutably borrowed by one stage for the
//! duration of a batch, so it needs no interior mutability, and a batch
//! that errors out mid-flight merely leaves the pool smaller, never wrong.

use crate::matrix::Matrix;

/// Upper bound on retained buffers; beyond it the smallest buffer is evicted
/// in favor of larger ones (large buffers are the expensive ones to rebuild).
const MAX_RETAINED: usize = 32;

/// High-water mark on total retained capacity. Retry storms
/// re-lease buffers before returning old ones, so the count cap alone can
/// pin tens of large buffers; past this byte budget the pool sheds its
/// smallest buffers until back under (never the incoming one first — large
/// buffers stay the cheapest to keep).
const MAX_RETAINED_BYTES: usize = 64 << 20;

/// Pool of reusable `f32` buffers dispensing zeroed [`Matrix`] scratch.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Vec<Vec<f32>>,
}

impl ScratchPool {
    /// Empty pool; buffers accrue as intermediates are recycled.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zero-filled `rows × cols` matrix, backed by the smallest retained
    /// buffer with sufficient capacity when one exists (fresh allocation
    /// otherwise).
    pub fn take_matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        let mut buf = self.take_vec(len);
        buf.resize(len, 0.0);
        Matrix::from_vec(rows, cols, buf)
    }

    /// An empty buffer with capacity for at least `len` floats, for a
    /// caller that fills it by pushing: the smallest retained buffer that
    /// fits, chosen as [`ScratchPool::take_matrix`] chooses.
    pub fn take_vec(&mut self, len: usize) -> Vec<f32> {
        let pos = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let mut buf = match pos {
            Some(i) => self.free.swap_remove(i),
            // No buffer fits: retire the smallest (its capacity is about to
            // be outgrown anyway) and let it regrow to this size.
            None => self
                .smallest()
                .map(|i| self.free.swap_remove(i))
                .unwrap_or_default(),
        };
        buf.clear();
        buf.reserve(len);
        buf
    }

    /// Return a retired intermediate's backing buffer to the pool.
    ///
    /// Shapes: any; only the backing capacity is retained.
    pub fn recycle(&mut self, m: Matrix) {
        self.recycle_vec(m.into_vec());
    }

    /// Return a raw buffer to the pool.
    ///
    /// Shapes: any; only the capacity is retained.
    pub fn recycle_vec(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        if self.free.len() >= MAX_RETAINED {
            match self.smallest() {
                Some(i) if self.free[i].capacity() < buf.capacity() => {
                    self.free.swap_remove(i);
                }
                _ => return,
            }
        }
        self.free.push(buf);
        // Byte high-water mark: evict smallest-first until back under the
        // cap. A single buffer larger than the whole budget is kept alone —
        // dropping it would only force an immediate identical allocation.
        while self.retained_bytes() > MAX_RETAINED_BYTES && self.free.len() > 1 {
            if let Some(i) = self.smallest() {
                self.free.swap_remove(i);
            }
        }
    }

    /// Buffers currently retained.
    pub fn retained(&self) -> usize {
        self.free.len()
    }

    /// Total capacity held by retained buffers, in bytes.
    pub fn retained_bytes(&self) -> usize {
        self.free
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<f32>())
            .sum()
    }

    fn smallest(&self) -> Option<usize> {
        self.free
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_even_after_dirty_recycle() {
        let mut pool = ScratchPool::new();
        let mut m = pool.take_matrix(4, 3);
        m.as_mut_slice().fill(7.5);
        pool.recycle(m);
        let again = pool.take_matrix(4, 3);
        assert!(again.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(again.shape(), (4, 3));
    }

    #[test]
    fn capacity_is_reused_across_shapes() {
        let mut pool = ScratchPool::new();
        let m = pool.take_matrix(10, 10);
        let cap_before = m.as_slice().len();
        pool.recycle(m);
        assert_eq!(pool.retained(), 1);
        // A smaller shape must reuse the same backing buffer, not allocate.
        let small = pool.take_matrix(3, 5);
        assert_eq!(pool.retained(), 0, "buffer was checked out, not copied");
        assert!(small.as_slice().len() <= cap_before);
        pool.recycle(small);
        assert_eq!(pool.retained(), 1);
        assert!(pool.retained_bytes() >= 100 * std::mem::size_of::<f32>());
    }

    #[test]
    fn prefers_smallest_sufficient_buffer() {
        let mut pool = ScratchPool::new();
        pool.recycle_vec(Vec::with_capacity(1000));
        pool.recycle_vec(Vec::with_capacity(50));
        let m = pool.take_matrix(5, 8); // needs 40: the 50-buffer must serve it
        pool.recycle(m);
        let caps: Vec<usize> = pool.free.iter().map(|b| b.capacity()).collect();
        assert!(
            caps.contains(&1000),
            "big buffer must stay untouched: {caps:?}"
        );
    }

    #[test]
    fn retention_is_bounded() {
        let mut pool = ScratchPool::new();
        for i in 0..(MAX_RETAINED + 10) {
            pool.recycle_vec(Vec::with_capacity(8 + i));
        }
        assert!(pool.retained() <= MAX_RETAINED);
        // The survivors are the largest buffers.
        assert!(pool.free.iter().all(|b| b.capacity() >= 18));
        // Zero-capacity returns are dropped outright.
        pool.recycle_vec(Vec::new());
        assert!(pool.retained() <= MAX_RETAINED);
    }

    #[test]
    fn retry_storm_stays_under_the_byte_cap() {
        // A retry storm: 100 attempts each leased a fresh large
        // buffer (4 MiB) before the previous one came back, and now they
        // all return. The count cap alone would pin 32 × 4 MiB = 128 MiB;
        // the byte high-water mark must keep residency bounded throughout.
        let mut pool = ScratchPool::new();
        let elems = (4 << 20) / std::mem::size_of::<f32>();
        for attempt in 0..100 {
            pool.recycle_vec(Vec::with_capacity(elems + attempt % 7));
            assert!(
                pool.retained_bytes() <= MAX_RETAINED_BYTES,
                "attempt {attempt}: resident {} bytes over the cap",
                pool.retained_bytes()
            );
        }
        assert!(pool.retained() >= 1, "working buffers must survive");
        // The survivors still serve the storm's shape without growing.
        let m = pool.take_matrix(1 << 10, 1 << 10);
        assert_eq!(m.shape(), (1 << 10, 1 << 10));
    }

    #[test]
    fn oversized_single_buffer_is_kept_alone() {
        let mut pool = ScratchPool::new();
        let elems = MAX_RETAINED_BYTES / std::mem::size_of::<f32>() + 1024;
        pool.recycle_vec(Vec::with_capacity(elems));
        assert_eq!(pool.retained(), 1, "a lone oversized buffer is retained");
        // Anything else recycled alongside it is shed to respect the cap.
        pool.recycle_vec(Vec::with_capacity(512));
        assert_eq!(pool.retained(), 1);
        assert!(pool.free[0].capacity() >= elems);
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let mut pool = ScratchPool::new();
        let m = pool.take_matrix(0, 5);
        assert_eq!(m.shape(), (0, 5));
        pool.recycle(m);
    }
}
