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
//!
//! A pool belongs to the one thread that made it: the handle holds an
//! [`Rc`], so the compiler keeps every buffer on that thread.
//!
//! ```compile_fail
//! let pool = af_server::BufferPool::shared();
//! let buf = pool.take_filled(16);
//! std::thread::spawn(move || drop(buf)); // `PooledBuf` is not `Send`.
//! ```

use crate::stats::{Shard, ShardCounters};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Free list capacity: enough for every stage of a connection's pipeline
/// (frame in flight, reply queued, a few blocked) without hoarding memory.
const DEFAULT_MAX_IDLE: usize = 32;

/// Free-list sizing for a server's transport pool.  The reactor keeps one
/// partial-frame accumulation buffer alive per connection that is
/// mid-frame, and thousands of connections cycle through frames
/// concurrently — a 32-buffer free list would thrash back to the
/// allocator under that churn.  Twice a full reply deque: the replies an
/// evicted slow client left waiting all come back to the free list.
pub const REACTOR_MAX_IDLE: usize = 2 * crate::reactor::OUTBOUND_QUEUE_CAPACITY;

/// A pool of reusable byte buffers, for the thread that made it.
pub struct BufferPool {
    idle: RefCell<Vec<Vec<u8>>>,
    max_idle: usize,
    /// Where takes count as `PoolAllocs` (a free-list miss) or
    /// `PoolReuses`: the reactor's counters, for a server's pool.
    pub(crate) stats: Arc<ShardCounters>,
}

impl BufferPool {
    /// Creates a pool retaining at most `max_idle` idle buffers, counting
    /// its takes into `stats`.
    pub fn with_max_idle(max_idle: usize, stats: Arc<ShardCounters>) -> Rc<BufferPool> {
        Rc::new(BufferPool {
            idle: RefCell::new(Vec::new()),
            max_idle,
            stats,
        })
    }

    /// Creates a pool with the default free-list size and counters of its
    /// own.
    pub fn shared() -> Rc<BufferPool> {
        Self::with_max_idle(DEFAULT_MAX_IDLE, Arc::default())
    }

    /// Takes an empty buffer (length 0, capacity whatever the pool has).
    pub fn take_empty(self: &Rc<Self>) -> PooledBuf {
        let mut buf = self.pop();
        buf.clear();
        PooledBuf {
            buf,
            pool: Some(Rc::clone(self)),
        }
    }

    /// Takes a buffer resized (zero-filled) to exactly `len` bytes.
    pub fn take_filled(self: &Rc<Self>, len: usize) -> PooledBuf {
        let mut buf = self.pop();
        buf.clear();
        buf.resize(len, 0);
        PooledBuf {
            buf,
            pool: Some(Rc::clone(self)),
        }
    }

    fn pop(&self) -> Vec<u8> {
        let recycled = self.idle.borrow_mut().pop();
        match recycled {
            Some(buf) => {
                self.stats.add(Shard::PoolReuses, 1);
                buf
            }
            None => {
                self.stats.add(Shard::PoolAllocs, 1);
                Vec::new()
            }
        }
    }

    fn give(&self, buf: Vec<u8>) {
        let mut idle = self.idle.borrow_mut();
        if buf.capacity() > 0 && idle.len() < self.max_idle {
            idle.push(buf);
        }
    }

    /// Buffers currently idle in the free list.
    pub fn idle_len(&self) -> usize {
        self.idle.borrow().len()
    }
}

/// A byte buffer borrowed from a [`BufferPool`] (or detached from any).
///
/// Dereferences to `[u8]`; dropping returns the storage to its pool.
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Option<Rc<BufferPool>>,
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

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.buf.fmt(f)
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

    fn pool(max_idle: usize) -> Rc<BufferPool> {
        BufferPool::with_max_idle(max_idle, Arc::default())
    }

    /// `(allocs, reuses)` the pool has counted.
    fn takes(pool: &BufferPool) -> (u64, u64) {
        (
            pool.stats.get(Shard::PoolAllocs),
            pool.stats.get(Shard::PoolReuses),
        )
    }

    #[test]
    fn buffers_recycle_through_the_pool() {
        let pool = pool(4);
        {
            let mut a = pool.take_filled(100);
            a[0] = 7;
        } // Returned on drop.
        assert_eq!(takes(&pool), (1, 0));
        assert_eq!(pool.idle_len(), 1);

        let b = pool.take_filled(50);
        assert_eq!(takes(&pool), (1, 1), "second take must reuse");
        assert_eq!(b.len(), 50);
        assert!(b.iter().all(|&x| x == 0), "reused buffer must be zeroed");
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = pool(2);
        let bufs: Vec<_> = (0..5).map(|_| pool.take_filled(8)).collect();
        drop(bufs);
        assert_eq!(pool.idle_len(), 2);
    }

    #[test]
    fn detached_buffers_skip_the_pool() {
        let pool = pool(4);
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
        let pool = pool(4);
        for _ in 0..100 {
            let frame = pool.take_filled(1024);
            let mut reply = pool.take_empty();
            reply.vec_mut().extend_from_slice(&[0u8; 64]); // "encode" a reply
            drop(frame);
            drop(reply);
        }
        let (allocs, reuses) = takes(&pool);
        assert!(allocs <= 2, "steady state must recycle: {allocs} allocs");
        assert!(reuses >= 198);
    }
}
