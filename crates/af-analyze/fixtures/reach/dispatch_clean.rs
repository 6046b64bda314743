// Fixture: registry-complete dispatcher.  The data-plane arms (the
// `alloc` roots) are allocation-free; `process_request` and `dispatch`
// are control-plane *barriers* and allocate freely — the lint must not
// follow `drain_queue` or `handle_request` through them.  `submit` and
// `request` are the shipped ways in: a transport thread takes the
// dispatch lock (justified: it is the single-thread guarantee) and runs
// `handle_event` — or, for a framed request lent to it, `handle_request`
// — itself.  `handle_event` is the barrier the reactor-rooted scans stop
// at, so the blocking wait and the allocations behind it are the
// dispatcher's business; `handle_request` is the same barrier for
// `blocking-in-reactor` (its `lock` must not be reported) and for `alloc`
// a root in its own right: it queues a suspended client's request in a
// pooled copy and allocates nothing.  `play_wake_instant`, below
// `suspend`, reads the wall clock: it is the scheduling layer's wake
// helper, where `wallclock` stops, as it does at `handle_event`, which
// stamps a connection's setup.

struct DispatchShared {
    dispatch_lock: Mutex<Dispatcher>,
}

impl DispatchHandle {
    fn submit(&self, ev: Event) {
        // af-analyze: allow(blocking-in-reactor): the dispatch lock is the single-thread guarantee; bounded by one request's handling
        let mut dispatcher = self.shared.dispatch_lock.lock();
        dispatcher.handle_event(ev);
    }
}

impl DispatchHandle {
    fn request(&self, id: u64, opcode: u8, payload: &[u8]) {
        // af-analyze: allow(blocking-in-reactor): the dispatch lock, as in `submit`
        let mut dispatcher = self.shared.dispatch_lock.lock();
        dispatcher.handle_request(id, opcode, payload);
    }
}

impl Dispatcher {
    fn handle_request(&mut self, id: u64, opcode: u8, payload: &[u8]) {
        self.trace.lock().count += 1;
        if self.suspended(id) {
            let mut copy = self.pool.take_empty();
            copy.extend_from_slice(payload);
            self.queue.push_back((opcode, copy));
        } else {
            self.process_request(u16::from(opcode));
        }
    }

    fn handle_event(&mut self, ev: Event) {
        let label = format!("event {ev:?}");
        self.joined_at = Instant::now();
        let _ = self.trace.lock().push(label.clone());
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
