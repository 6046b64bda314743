// Fixture: must trigger `alloc` twice — the append-form record read
// stages the ring's bytes in a buffer of its own (`stage`) before
// appending them; the finding must carry the `read_rec_into -> stage`
// path.  And the merge loop writes through from a copy it makes per play.

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

    fn merge_play(&mut self, start: u32, total: u32, mut put: impl FnMut(&mut [u8], usize, bool)) {
        self.play.with_frames_mut(start, total, |chunk| put(chunk, 0, true));
        let through = self.play.contents(start, total).to_owned();
        self.backend.write_play(start, &through);
    }
}
