// Fixture: must NOT trigger `wallclock`.  Every hot-path function from the
// dispatch.rs registry exists and reads no wall clock; the scheduling
// helper below them may (and does) read one.

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
        self.advance_play();
        self.drain_queue();
    }

    fn advance_play(&mut self) {
        self.suspend();
    }

    fn suspend(&mut self) {
        // The deadline comes from the scheduling helper, not from here.
        let _wake = self.wake_instant();
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

    fn wake_instant(&self) -> Instant {
        // Scheduling layer: converting a tick deficit into a sleep is the
        // one sanctioned use of the wall clock.
        Instant::now()
    }
}
