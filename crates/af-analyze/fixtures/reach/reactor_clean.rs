// Fixture: registry-complete reactor shard.  Every `blocking-in-reactor`
// and `alloc` root exists; the handler chain uses only non-blocking
// primitives and caller-owned scratch — including the reply path's write
// critical section, whose leaf lock is justified on both sides (the
// shard's `flush_conn`, the producers' `deliver`) — and `feed` hands each
// framed event to the dispatcher's `submit`, which handles it on this
// thread under the dispatch lock.  The accept/registration path
// (an `alloc` barrier) allocates its per-connection state — that is
// setup, amortized over the connection lifetime, and must not be
// reported.

impl Shard {
    fn handle_wake(&mut self) {
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
        self.transport.dispatch.submit((token, n));
    }

    fn flush_conn(&mut self, token: u64) {
        // af-analyze: allow(blocking-in-reactor): leaf lock; a producer holds it only across one nonblocking write and a try_send
        let mut in_flight = self.shared.in_flight.lock();
        if let Some(buf) = in_flight.take() {
            let _ = self.io.write(&buf);
        }
        let _ = token;
    }

    fn accept_tcp(&mut self) {
        self.register_conn(Vec::new());
    }

    fn accept_unix(&mut self) {
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

    fn accept_bcast(&mut self) {
        self.register_bcast(Vec::new());
    }

    fn register_bcast(&mut self, req: Vec<u8>) {
        self.listeners.push(Box::new(req));
    }

    fn start_stream(&mut self, token: u64) {
        let head = format!("ICY 200 OK token {token}");
        self.headers.push(head.to_string());
    }
}

impl ConnNotify {
    fn deliver(&self, queue: &Sender<Buf>, buf: Buf) {
        // af-analyze: allow(blocking-in-reactor): leaf lock, held only across a nonblocking write and a try_send
        let mut in_flight = self.shared.in_flight.lock();
        if in_flight.is_none() && queue.is_empty() && self.sock.write(&buf) == buf.len() {
            return;
        }
        let _ = queue.try_send(buf);
        drop(in_flight);
        self.wake();
    }
}
