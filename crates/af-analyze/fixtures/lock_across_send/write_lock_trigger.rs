// Fixture: must trigger `lock-across-send` — the direct-write shape gone
// wrong.  The justified `try_send` under the connection's write lock is
// fine; falling back to a *blocking* `send` while still holding that lock
// deadlocks against the shard, which needs the lock to make room.

pub fn deliver_blocking(
    in_flight: &std::sync::Mutex<Option<(Vec<u8>, usize)>>,
    queue: &crossbeam_channel::Sender<Vec<u8>>,
    buf: Vec<u8>,
) {
    let slot = in_flight.lock().unwrap_or_else(|p| p.into_inner());
    if slot.is_some() {
        // af-analyze: allow(lock-across-send): try_send never blocks; the lock orders this message behind the queued ones
        if let Err(crossbeam_channel::TrySendError::Full(buf)) = queue.try_send(buf) {
            queue.send(buf).ok();
        }
    }
}
