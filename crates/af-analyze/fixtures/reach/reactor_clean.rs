// Fixture: registry-complete reactor.  Every `blocking-in-reactor` and
// `alloc` root exists, and the handler chain uses only non-blocking
// primitives and caller-owned scratch: `handle_wake` takes the calls
// other threads left with `try_recv`, `feed` lends what it framed from
// the read scratch to the handler — a setup to its `connect`, a request
// to its `request`, each handled on this thread — and replies leave by
// `deliver`'s direct write or by `flush_conn` draining the deque the
// reactor thread owns.  The accept/registration path (an `alloc` barrier) allocates its
// per-connection state — that is setup, amortized over the connection
// lifetime, and must not be reported.

impl Shard {
    fn handle_wake(&mut self) {
        while let Ok(asked) = self.calls.try_recv() {
            self.answered.push(asked);
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
            self.handler.connect(token, &self.read_scratch[..n]);
        } else {
            self.handler.request(token, 1, &self.read_scratch[..n]);
        }
    }

    fn flush_conn(&mut self, token: u64) {
        let out = self.handler.outbound();
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

impl Outbound {
    fn deliver(&mut self, buf: Buf) {
        if self.queue.is_empty() && self.sock.write(&buf) == buf.len() {
            return;
        }
        self.queue.push_back(buf);
        self.stalled.push(self.token);
    }
}
