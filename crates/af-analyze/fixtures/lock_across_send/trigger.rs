// Fixture: must trigger `lock-across-send` — the guard is still live when
// the channel send can block.

pub struct Relay {
    queue: Mutex<Vec<u32>>,
    tx: crossbeam_channel::Sender<u32>,
}

impl Relay {
    pub fn forward(&self) {
        let guard = self.queue.lock().unwrap_or_else(|p| p.into_inner());
        self.tx.send(guard[0]).ok();
    }
}
