// Fixture: must trigger `alloc` once, one call deep — the seal helper
// below the `publish` root defensively copies the payload with
// `.to_vec()`, a per-chunk heap allocation on the encode-once path.
impl BroadcastBus {
    pub fn tap(&mut self, bytes: &[u8]) {
        self.staging.extend_from_slice(bytes);
        self.seal_full();
    }

    pub fn tap_silence(&mut self, frames: u32) {
        let len = self.staging.len() + frames as usize;
        self.staging.resize(len, self.fill);
        self.seal_full();
    }

    fn seal_full(&mut self) {
        if self.staging.len() == self.chunk_bytes {
            let staging = std::mem::take(&mut self.staging);
            self.publish(&staging);
            self.staging = staging;
            self.staging.clear();
        }
    }

    pub fn publish(&mut self, payload: &[u8]) {
        let mut wire = self.pop_free();
        wire.extend_from_slice(payload);
        self.seal(&wire);
    }

    fn pop_free(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => buf,
            None => Vec::with_capacity(self.chunk_bytes + 20),
        }
    }

    fn seal(&mut self, wire: &[u8]) {
        self.ring.insert(wire.to_vec());
    }

    pub fn fetch_batch(&self, cursor: u64, max: usize) -> u64 {
        let mut seq = cursor;
        while seq < self.live_seq() && (seq - cursor) < max as u64 {
            seq += 1;
        }
        seq
    }
}
