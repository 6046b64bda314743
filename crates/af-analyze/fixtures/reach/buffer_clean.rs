// Fixture: the append-form record read (an `alloc` root) writes into its
// caller's buffer: ring bytes where there are any, silence elsewhere.
// The form that returns a new buffer is for callers off the data plane,
// and is not reached from the root.  The merge loop behind every play
// (the other root) hands `put` the ring's own storage, and reuses its
// write-through scratch.

impl DeviceBuffers {
    fn read_rec(&mut self, start: u32, nframes: u32) -> Vec<u8> {
        let mut out = Vec::new();
        self.read_rec_into(start, nframes, &mut out);
        out
    }

    fn read_rec_into(&mut self, start: u32, nframes: u32, out: &mut Vec<u8>) {
        let end = out.len() + nframes as usize;
        self.rec.append_to(start, nframes, out);
        out.resize(end, self.fill);
    }

    fn merge_play(&mut self, start: u32, total: u32, mut put: impl FnMut(&mut [u8], usize, bool)) {
        self.play.with_frames_mut(start, total, |chunk| put(chunk, 0, true));
        let mut through = std::mem::take(&mut self.scratch);
        through.clear();
        self.play.append_to(start, total, &mut through);
        self.scratch = through;
    }
}
