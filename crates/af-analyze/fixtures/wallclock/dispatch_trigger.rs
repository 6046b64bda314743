// Fixture: must trigger `wallclock` exactly once — h_play reads the wall
// clock from inside a hot path.

use std::time::Instant;

pub struct Dispatcher;

impl Dispatcher {
    pub fn run_inline(&mut self) {
        self.process_request();
    }

    pub fn process_request(&mut self) {
        self.dispatch();
    }

    pub fn dispatch(&mut self) {
        self.h_play();
        self.h_record();
    }

    fn h_play(&mut self) {
        let _deadline = Instant::now();
        self.advance_play();
        self.drain_queue();
    }

    fn advance_play(&mut self) {
        self.suspend();
    }

    fn suspend(&mut self) {
        let _blocked = 1u32;
    }

    fn h_record(&mut self) {
        self.finish_record();
    }

    fn finish_record(&mut self) {
        let _ticks = 42u32;
    }

    fn drain_queue(&mut self) {
        self.retry_blocked();
    }

    fn retry_blocked(&mut self) {
        let _woken = 0u32;
    }
}
