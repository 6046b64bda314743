// Fixture: must trigger `blocking-in-reactor` twice, each through the
// call graph with its path: `drive_read` calls `stall`, whose blocking
// channel `.recv()` waits, and `feed` calls `poll_link`, whose blocking
// `socket.recv(&mut buf)` waits for a datagram.

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
        self.stall();
        self.flush_conn(token);
    }

    fn stall(&mut self) {
        let _ = self.inbox.recv();
    }

    fn feed(&mut self, token: u64) {
        self.frames += token;
        self.poll_link();
    }

    fn poll_link(&mut self) {
        let mut buf = [0u8; 64];
        let _ = self.socket.recv(&mut buf);
    }

    fn deliver(&self, token: u64) {
        let _ = self.sock.write(&token.to_le_bytes());
    }

    fn flush_conn(&mut self, token: u64) {
        let _ = self.io.write(&token.to_le_bytes());
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
