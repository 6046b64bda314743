// Fixture: must trigger `alloc` once — the append-form record read
// stages the ring's bytes in a buffer of its own (`stage`) before
// appending them; the finding must carry the `read_rec_into -> stage`
// path.

impl DeviceBuffers {
    fn read_rec_into(&mut self, start: u32, nframes: u32, out: &mut Vec<u8>) {
        let staged = self.stage(start, nframes);
        out.extend_from_slice(&staged);
    }

    fn stage(&self, start: u32, nframes: u32) -> Vec<u8> {
        let mut staged = Vec::new();
        self.rec.append_to(start, nframes, &mut staged);
        staged
    }
}
