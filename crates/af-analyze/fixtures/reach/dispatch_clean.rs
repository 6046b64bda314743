// Fixture: registry-complete dispatcher.  The data-plane arms (the
// `alloc` roots) are allocation-free; `process_request` and `dispatch`
// are control-plane *barriers* and allocate freely — the lint must not
// follow `drain_queue` or `handle_request` through them.  The reactor
// reaches the dispatcher through its `Handler` impl, on the reactor
// thread: `connect` runs `handle_new_client` on the setup lent to it, and
// `request` runs `handle_request` on the request lent to it.
// `handle_new_client` is the barrier the reactor-rooted scans stop at, so
// the allocations behind it are the dispatcher's business; `handle_request` is the same barrier for
// `blocking-in-reactor` (the timed channel read its record arm makes
// must not be reported) and for `alloc` a root in its own right: it queues a
// suspended client's request in a pooled copy and allocates nothing.
// `play_wake_instant`, below `suspend`, reads the wall clock: it is the
// scheduling layer's wake helper, where `wallclock` stops, as it does at
// `handle_new_client`, which stamps a connection's setup.

impl Handler for Dispatcher {
    fn connect(&mut self, id: u64, setup: &[u8]) {
        self.handle_new_client(id, setup);
    }

    fn request(&mut self, id: u64, opcode: u8, payload: &[u8]) {
        self.handle_request(id, opcode, payload);
    }
}

impl Dispatcher {
    fn handle_request(&mut self, id: u64, opcode: u8, payload: &[u8]) {
        self.served += 1;
        if self.suspended(id) {
            let mut copy = self.pool.take_empty();
            copy.extend_from_slice(payload);
            self.queue.push_back((opcode, copy));
        } else if opcode == RECORD {
            let _ = self.inbox.recv_timeout(WAIT);
        } else {
            self.process_request(u16::from(opcode));
        }
    }

    fn handle_new_client(&mut self, id: u64, setup: &[u8]) {
        let label = format!("client {id}: {setup:?}");
        self.joined_at = Instant::now();
        self.trace.push(label.clone());
        self.process_request(0);
    }

    fn h_play(&mut self, req: Request) {
        self.advance_play(req.id, 0);
    }

    fn advance_play(&mut self, id: u64, offset: usize) {
        let _ = offset;
        self.suspend(id);
    }

    fn suspend(&mut self, id: u64) {
        self.blocked.push_back(id);
        let wake = self.play_wake_instant(id);
        self.tasks.schedule(wake);
    }

    fn play_wake_instant(&self, id: u64) -> Instant {
        Instant::now() + self.deficit(id)
    }

    fn h_record(&mut self, req: Request) {
        self.suspend(req.id);
    }

    fn finish_record(&mut self) {}

    fn drain_queue(&mut self) {
        self.process_request(0);
    }

    fn retry_blocked(&mut self) {
        self.drain_queue();
    }

    fn process_request(&mut self, op: u16) {
        let label = format!("op {op}");
        self.dispatch(label);
    }

    fn dispatch(&mut self, label: String) {
        self.names.push(label.clone());
    }
}
