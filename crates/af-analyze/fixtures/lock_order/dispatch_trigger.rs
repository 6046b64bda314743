// Fixture: must trigger `lock-order` — `flush_conn` reports the dead
// connection through `submit` (which takes the dispatch lock) while it
// still holds the connection's outbound lock, against the handlers' order
// (dispatch lock, then `deliver`'s outbound lock).  Two shards doing this
// to each other's connections deadlock.

struct DispatchShared {
    dispatch_lock: Mutex<Dispatcher>,
}

struct ConnShared {
    outbound: Mutex<Outbound>,
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

impl ConnShared {
    fn deliver(&self, buf: Buf) {
        let mut out = self.outbound.lock();
        out.queue.push_back(buf);
    }
}

impl Shard {
    fn flush_conn(&mut self, token: u64) {
        let mut out = self.shared.outbound.lock();
        if out.queue.pop_front().is_none() {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        self.transport.dispatch.submit(token);
    }
}
