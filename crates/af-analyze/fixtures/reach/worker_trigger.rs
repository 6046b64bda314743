// Fixture: must trigger `blocking-in-reactor` — the worker posts its
// completion by calling the dispatcher's `submit`, i.e. it waits on the
// dispatch lock.  The lock's holder may be blocked on this very worker's
// job queue, so that is a deadlock; completions go through the task
// thread's channel.  (`submit`'s own allow covers transport threads
// only and must not hide this.)

impl Worker {
    fn handle(&mut self, job: Job) {
        self.handle_play(job);
    }

    fn handle_play(&mut self, job: Job) {
        self.scratch.clear();
        self.scratch.extend_from_slice(job.data);
        self.done(job.client);
    }

    fn handle_record(&mut self, job: Job) {
        let _ = self.out.try_send(job.id);
    }

    fn finish_record(&mut self) {
        self.retry_one();
    }

    fn retry_one(&mut self) {}

    fn run_group_update(&mut self) {}

    fn run_passthrough(&mut self) {}

    fn publish_snapshots(&self) {
        self.frames.store(1, Ordering::Relaxed);
    }

    fn done(&self, client: u64) {
        self.dispatch.submit(client);
    }
}
