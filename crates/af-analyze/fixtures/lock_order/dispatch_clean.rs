// Fixture: must NOT trigger `lock-order` — the shipped shape.  A
// transport thread takes the dispatch lock, and the handler's reply takes
// the connection's write lock under it (dispatch → connection-write).
// The shard's flush takes only the write lock and has released it by the
// time it reports the dead connection through `submit`.

struct DispatchShared {
    dispatch_lock: Mutex<Dispatcher>,
}

struct ConnShared {
    in_flight: Mutex<Option<Buf>>,
}

impl DispatchHandle {
    fn submit(&self, ev: Event) {
        let mut dispatcher = self.shared.dispatch_lock.lock();
        dispatcher.handle_event(ev);
    }
}

impl Dispatcher {
    fn handle_event(&mut self, ev: Event) {
        self.reply.deliver(ev.into());
    }
}

impl ConnNotify {
    fn deliver(&self, buf: Buf) {
        let mut in_flight = self.shared.in_flight.lock();
        *in_flight = Some(buf);
    }
}

impl Shard {
    fn flush_conn(&mut self, token: u64) {
        let dead = {
            let mut in_flight = self.shared.in_flight.lock();
            in_flight.take().is_none()
        };
        if dead {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        self.transport.dispatch.submit(token);
    }
}
