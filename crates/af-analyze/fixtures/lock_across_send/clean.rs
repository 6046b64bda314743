// Fixture: must NOT trigger `lock-across-send` — the guard is released
// before sending, by scope end or by explicit drop.

pub struct Relay {
    queue: Mutex<Vec<u32>>,
    tx: crossbeam_channel::Sender<u32>,
}

impl Relay {
    pub fn forward_scoped(&self) {
        let first = {
            let guard = self.queue.lock().unwrap_or_else(|p| p.into_inner());
            guard[0]
        };
        self.tx.send(first).ok();
    }

    pub fn forward_dropped(&self) {
        let guard = self.queue.lock().unwrap_or_else(|p| p.into_inner());
        let first = guard[0];
        drop(guard);
        self.tx.send(first).ok();
    }
}
