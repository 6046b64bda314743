//! A reuse pool for reply and staging buffers.
//!
//! A request that arrives whole is handled in the buffer `read` left it
//! in and takes nothing from here.  What must be owned is: the reply (the
//! dispatcher encodes it into a pooled buffer, and whoever writes the
//! bytes to the socket returns it), a frame split across reads (the
//! reactor stages it in one), and a request held for a suspended client.
//! [`BufferPool`] keeps a small free list so steady-state traffic recycles
//! the same few buffers and allocates nothing.
//!
//! [`PooledBuf`] is the RAII handle — dropping it gives the buffer back.
//! Buffers can also be detached from any pool (`PooledBuf::from(vec)`) for
//! cold paths like setup replies and error messages.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Free list capacity: enough for every stage of a connection's pipeline
/// (frame in flight, reply queued, a few blocked) without hoarding memory.
const DEFAULT_MAX_IDLE: usize = 32;

/// Free-list sizing for a server's transport pool.  The reactor keeps one
/// partial-frame accumulation buffer alive per connection that is
/// mid-frame, and thousands of connections cycle through frames
/// concurrently — a 32-buffer free list would thrash back to the
/// allocator under that churn.
pub const REACTOR_MAX_IDLE: usize = 128;

/// A shared pool of reusable byte buffers.
#[derive(Debug)]
pub struct BufferPool {
    idle: Mutex<Vec<Vec<u8>>>,
    max_idle: usize,
    allocs: AtomicU64,
    reuses: AtomicU64,
}

impl BufferPool {
    /// Creates a pool retaining at most `max_idle` idle buffers.
    pub fn with_max_idle(max_idle: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            idle: Mutex::new(Vec::new()),
            max_idle,
            allocs: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        })
    }

    /// Creates a pool with the default free-list size.
    pub fn shared() -> Arc<BufferPool> {
        Self::with_max_idle(DEFAULT_MAX_IDLE)
    }

    /// Takes an empty buffer (length 0, capacity whatever the pool has).
    pub fn take_empty(self: &Arc<Self>) -> PooledBuf {
        let mut buf = self.pop();
        buf.clear();
        PooledBuf {
            buf,
            pool: Some(Arc::clone(self)),
        }
    }

    /// Takes a buffer resized (zero-filled) to exactly `len` bytes.
    pub fn take_filled(self: &Arc<Self>, len: usize) -> PooledBuf {
        let mut buf = self.pop();
        buf.clear();
        buf.resize(len, 0);
        PooledBuf {
            buf,
            pool: Some(Arc::clone(self)),
        }
    }

    fn pop(&self) -> Vec<u8> {
        // The lock scope is a leaf (no user code runs under it), so a
        // poisoned pool only means another thread died mid-push; its free
        // list is still structurally sound — recover it.
        let recycled = self
            .idle
            // af-analyze: allow(blocking-in-reactor): leaf mutex with a bounded critical section (vec pop); never held across I/O or sends
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .pop();
        match recycled {
            Some(buf) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.allocs.fetch_add(1, Ordering::Relaxed);
                // af-analyze: allow(alloc): counted pool-miss path; steady state recycles returned buffers
                Vec::new()
            }
        }
    }

    fn give(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut idle = self
            .idle
            // af-analyze: allow(blocking-in-reactor): leaf mutex with a bounded critical section (vec push); never held across I/O or sends
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if idle.len() < self.max_idle {
            idle.push(buf);
        }
    }

    /// Buffers handed out that missed the free list (fresh allocations).
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Buffers handed out from the free list.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// The free-list retention bound this pool was built with.
    pub fn max_idle(&self) -> usize {
        self.max_idle
    }

    /// Buffers currently idle in the free list.
    pub fn idle_len(&self) -> usize {
        self.idle
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }
}

/// A byte buffer borrowed from a [`BufferPool`] (or detached from any).
///
/// Dereferences to `[u8]`; dropping returns the storage to its pool.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Option<Arc<BufferPool>>,
}

impl PooledBuf {
    /// The underlying vector, for growth/encoding in place.
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Detaches the buffer from its pool, returning the raw vector.
    pub fn into_vec(mut self) -> Vec<u8> {
        self.pool = None;
        std::mem::take(&mut self.buf)
    }
}

impl From<Vec<u8>> for PooledBuf {
    /// Wraps a plain vector as a pool-less buffer (cold paths).
    fn from(buf: Vec<u8>) -> PooledBuf {
        PooledBuf { buf, pool: None }
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.give(std::mem::take(&mut self.buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_through_the_pool() {
        let pool = BufferPool::with_max_idle(4);
        {
            let mut a = pool.take_filled(100);
            a[0] = 7;
        } // Returned on drop.
        assert_eq!(pool.allocs(), 1);
        assert_eq!(pool.idle_len(), 1);

        let b = pool.take_filled(50);
        assert_eq!(pool.allocs(), 1, "second take must reuse");
        assert_eq!(pool.reuses(), 1);
        assert_eq!(b.len(), 50);
        assert!(b.iter().all(|&x| x == 0), "reused buffer must be zeroed");
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = BufferPool::with_max_idle(2);
        let bufs: Vec<_> = (0..5).map(|_| pool.take_filled(8)).collect();
        drop(bufs);
        assert_eq!(pool.idle_len(), 2);
    }

    #[test]
    fn detached_buffers_skip_the_pool() {
        let pool = BufferPool::with_max_idle(4);
        let d = PooledBuf::from(vec![1, 2, 3]);
        assert_eq!(&*d, &[1, 2, 3]);
        drop(d);
        assert_eq!(pool.idle_len(), 0);

        let taken = pool.take_filled(16);
        let v = taken.into_vec();
        assert_eq!(v.len(), 16);
        assert_eq!(pool.idle_len(), 0, "into_vec detaches from the pool");
    }

    #[test]
    fn steady_state_allocates_nothing_new() {
        let pool = BufferPool::with_max_idle(4);
        for _ in 0..100 {
            let frame = pool.take_filled(1024);
            let mut reply = pool.take_empty();
            reply.vec_mut().extend_from_slice(&[0u8; 64]); // "encode" a reply
            drop(frame);
            drop(reply);
        }
        assert!(
            pool.allocs() <= 2,
            "steady state must recycle: {} allocs",
            pool.allocs()
        );
        assert!(pool.reuses() >= 198);
    }
}
