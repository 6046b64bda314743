// Fixture: jitter-buffer per-frame entry points — fixed slot array,
// no allocation, no blocking, device time only.  A missing frame is
// concealed by fading the last good one, counted in ticks.

impl JitterBuffer {
    fn insert(&mut self, slot: usize, frame: Frame) {
        let at = slot % self.slots.len();
        self.slots[at] = Some(frame);
    }

    fn observe_transit(&mut self, transit: i64) {
        self.jitter_ewma += (transit - self.last_transit).abs() / 16;
        self.last_transit = transit;
    }

    fn read(&mut self) -> Option<Frame> {
        self.slots[self.head].take().or_else(|| self.conceal_sample())
    }

    fn conceal_sample(&mut self) -> Option<Frame> {
        self.fade_ticks = self.fade_ticks.saturating_sub(FRAME_TICKS);
        self.last.map(|f| f.faded(self.fade_ticks))
    }
}
