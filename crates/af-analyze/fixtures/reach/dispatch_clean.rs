// Fixture: registry-complete dispatcher.  The data-plane arms (the
// `alloc` roots) are allocation-free; `process_request` and `dispatch`
// are control-plane *barriers* and allocate freely — the lint must not
// follow `drain_queue` through them.  `submit` is the shipped way in: a
// transport thread takes the dispatch lock (justified: it is the
// single-thread guarantee) and runs `handle_event` itself; `handle_event`
// is the barrier the reactor-rooted scans stop at, so the blocking wait
// and the allocations behind it are the dispatcher's business.

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

impl Dispatcher {
    fn handle_event(&mut self, ev: Event) {
        let label = format!("event {ev:?}");
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
