// Fixture: must NOT trigger `lock-across-send` — the direct-write shape.
// Under the connection's write lock: one nonblocking socket write, or a
// justified `try_send` that queues the message behind those already
// queued.  The guard is dropped before any blocking send.

use std::io::Write;

pub fn deliver(
    in_flight: &std::sync::Mutex<Option<(Vec<u8>, usize)>>,
    mut sock: &std::net::TcpStream,
    queue: &crossbeam_channel::Sender<Vec<u8>>,
    buf: Vec<u8>,
) {
    let mut slot = in_flight.lock().unwrap_or_else(|p| p.into_inner());
    if slot.is_none() && queue.is_empty() {
        match sock.write(&buf) {
            Ok(n) if n == buf.len() => return,
            Ok(n) if n > 0 => {
                *slot = Some((buf, n));
                return;
            }
            _ => {}
        }
    }
    // af-analyze: allow(lock-across-send): try_send never blocks; the lock orders this message behind the queued ones
    let queued = queue.try_send(buf);
    drop(slot);
    if let Err(crossbeam_channel::TrySendError::Full(buf)) = queued {
        queue.send(buf).ok();
    }
}
