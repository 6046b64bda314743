// Fixture: registry-complete reactor shard.  Every `blocking-in-reactor`
// and `alloc` root exists; the handler chain uses only non-blocking
// primitives and caller-owned scratch — including the reply path's two
// leaf locks, each justified at every site: the connection's outbound
// deque (the shard's `flush_conn`, the producers' `deliver`) and the
// shard's mailbox (one push in `wake`, one swap in `handle_wake`) — and
// `feed` hands each framed event to the dispatcher's `submit` — a
// request, lent from the read scratch, to its `request` — which
// handles it on this thread under the dispatch lock.  The
// accept/registration path (an `alloc` barrier) allocates its
// per-connection state — that is setup, amortized over the connection
// lifetime, and must not be reported.

impl Shard {
    fn handle_wake(&mut self) {
        {
            // af-analyze: allow(blocking-in-reactor): leaf lock, held for one swap; a producer holds it for one push
            let mut mailbox = self.link.mailbox.lock();
            std::mem::swap(&mut *mailbox, &mut self.spare_mailbox);
        }
        self.handle_token(1);
    }

    fn handle_token(&mut self, token: u64) {
        self.read_conn(token);
    }

    fn read_conn(&mut self, token: u64) {
        self.drive_read(token);
    }

    fn drive_read(&mut self, token: u64) {
        let n = self.io.read(&mut self.read_scratch);
        self.feed(token, n);
        self.flush_conn(token);
    }

    fn feed(&mut self, token: u64, n: usize) {
        if token == 0 {
            self.shared.dispatch.submit((token, n));
        } else {
            let dispatch = &self.shared.dispatch;
            dispatch.request(token, 1, &self.read_scratch[..n]);
        }
    }

    fn flush_conn(&mut self, token: u64) {
        // af-analyze: allow(blocking-in-reactor): leaf lock; a producer holds it only across one nonblocking write and a push
        let mut out = self.shared.outbound.lock();
        if let Some(buf) = out.queue.front() {
            let _ = self.io.write(&buf[out.written..]);
        }
        let _ = token;
    }

    fn accept_ready(&mut self) {
        self.register_conn(Vec::new());
    }

    fn register_conn(&mut self, setup: Vec<u8>) {
        self.conns.push(Box::new(setup));
    }

    fn read_bcast(&mut self, token: u64) {
        self.start_stream(token);
        self.pump_bcast(token, false);
    }

    fn pump_bcast(&mut self, token: u64, strike: bool) {
        let _ = (token, strike);
        let _ = self.bus.fetch_batch(token, 8);
    }

    fn start_stream(&mut self, token: u64) {
        let head = format!("ICY 200 OK token {token}");
        self.headers.push(head.to_string());
    }
}

impl ConnShared {
    fn deliver(&self, buf: Buf) {
        // af-analyze: allow(blocking-in-reactor): leaf lock, held only across a nonblocking write and a push
        let mut out = self.outbound.lock();
        if out.queue.is_empty() && self.sock.write(&buf) == buf.len() {
            return;
        }
        out.queue.push_back(buf);
        drop(out);
        self.wake();
    }

    fn wake(&self) {
        if !self.notified.swap(true) {
            // af-analyze: allow(blocking-in-reactor): leaf lock, held for one push
            self.link.mailbox.lock().flush.push(self.token);
            self.link.waker.wake();
        }
    }
}
