// Fixture: must NOT trigger `lock-order` — the shipped shape.  A
// transport thread takes the dispatch lock, and the handler's reply takes
// the connection's outbound lock under it, then — with that released —
// the shard's mailbox lock to leave a flush token (dispatch → outbound,
// dispatch → mailbox, both leaves).  The shard's flush takes only the
// outbound lock and has released it by the time it reports the dead
// connection through `submit`.

struct DispatchShared {
    dispatch_lock: Mutex<Dispatcher>,
}

struct ConnShared {
    outbound: Mutex<Outbound>,
}

struct ShardLink {
    mailbox: Mutex<Mailbox>,
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
        drop(out);
        self.wake();
    }

    fn wake(&self) {
        self.link.mailbox.lock().flush.push(self.token);
    }
}

impl Shard {
    fn flush_conn(&mut self, token: u64) {
        let dead = {
            let mut out = self.shared.outbound.lock();
            out.queue.pop_front().is_none()
        };
        if dead {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        self.transport.dispatch.submit(token);
    }
}
