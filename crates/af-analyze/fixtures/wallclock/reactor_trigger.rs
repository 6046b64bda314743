// Trigger: a wall-clock read inside `drive_read`, the per-readiness-event
// framing loop — the hottest path in the reactor.
impl Shard {
    fn handle_wake(&mut self) {
        std::mem::swap(&mut *self.link.mailbox.lock(), &mut self.spare_mailbox);
    }

    fn handle_token(&mut self, ev: PollEvent) {
        let _ = ev;
        self.read_conn(0);
    }

    fn flush_conn(&mut self, token: usize, from_notify: bool) {
        let _ = (token, from_notify);
    }

    fn read_conn(&mut self, token: usize) {
        let _ = token;
    }

    fn drive_read(&mut self, conn: &mut ConnState) -> ReadOutcome {
        let start = std::time::Instant::now();
        let _ = (conn, start);
        ReadOutcome::Park
    }

    fn feed(&mut self, conn: &mut ConnState, data: &[u8]) {
        let _ = (conn, data);
    }

    fn deliver(&self, buf: PooledBuf) {
        let _ = buf;
    }

    fn read_bcast(&mut self, token: usize) {
        let _ = token;
        self.pump_bcast(token, false);
    }

    fn pump_bcast(&mut self, token: usize, strike: bool) {
        let _ = (token, strike);
    }
}
