//! The task mechanism (§7.3.1).
//!
//! "Instead of using threads, we implemented a simple task mechanism which
//! allows procedures to be scheduled for execution at future times, outside
//! the main flow of control."  The queue lives inside the dispatcher, behind
//! the dispatch lock.  Request handlers — on whichever transport thread
//! framed the request — schedule into it; the task thread (`af-dispatcher`)
//! waits on a condition variable paired with that lock until the earliest
//! deadline (the `select()` timeout of the original), then runs everything
//! due under it: the periodic update, and wake-ups for suspended clients.
//! A handler that schedules ahead of that deadline signals the condition
//! variable once it has unlocked.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// What a due task does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaskKind {
    /// Run the per-device update and reschedule (the `codecUpdateTask`
    /// analogue).
    Update,
    /// Re-check clients suspended on the given device (a blocked request
    /// may now complete).  Scoped per device so one device's wake-up does
    /// not re-walk every suspended client on every other device.
    WakeBlocked(af_proto::DeviceId),
}

/// A time-ordered queue of pending tasks.
#[derive(Default)]
pub struct TaskQueue {
    heap: BinaryHeap<Reverse<(Instant, u64, TaskKind)>>,
    counter: u64,
}

impl TaskQueue {
    /// Creates an empty queue.
    pub fn new() -> TaskQueue {
        TaskQueue::default()
    }

    /// Schedules `kind` to run at `at` (the `AddTask` analogue).
    pub fn schedule(&mut self, at: Instant, kind: TaskKind) {
        self.counter += 1;
        self.heap.push(Reverse((at, self.counter, kind)));
    }

    /// The earliest deadline, if any task is pending.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Pops every task due at or before `now`, each with the deadline it
    /// was scheduled for (a periodic task re-arms from that, not from
    /// `now`, so a late pop does not stretch the period).
    pub fn pop_due(&mut self, now: Instant) -> Vec<(Instant, TaskKind)> {
        let mut due = Vec::new();
        while let Some(Reverse((at, _, _))) = self.heap.peek() {
            if *at > now {
                break;
            }
            if let Some(Reverse((at, _, kind))) = self.heap.pop() {
                due.push((at, kind));
            }
        }
        due
    }

    /// Number of pending tasks.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no tasks are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// When a periodic task that was due at `deadline` fires next: one
/// `interval` after that deadline, or — if the pop came so late that this
/// is already past — the first later multiple still ahead of `now`, so a
/// stall is followed by one run, not a burst of catch-up runs.
pub fn next_period(deadline: Instant, interval: Duration, now: Instant) -> Instant {
    let next = deadline + interval;
    if next > now {
        return next;
    }
    let behind = now.duration_since(deadline).as_nanos();
    let periods = behind / interval.as_nanos().max(1) + 1;
    deadline + interval * u32::try_from(periods).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = TaskQueue::new();
        let t0 = Instant::now();
        q.schedule(t0 + Duration::from_millis(20), TaskKind::WakeBlocked(0));
        q.schedule(t0 + Duration::from_millis(10), TaskKind::Update);
        assert_eq!(q.next_deadline(), Some(t0 + Duration::from_millis(10)));

        // Nothing due yet.
        assert!(q.pop_due(t0).is_empty());
        assert_eq!(q.len(), 2);

        let due = q.pop_due(t0 + Duration::from_millis(15));
        assert_eq!(
            due,
            vec![(t0 + Duration::from_millis(10), TaskKind::Update)]
        );

        let due = q.pop_due(t0 + Duration::from_millis(25));
        assert_eq!(
            due,
            vec![(t0 + Duration::from_millis(20), TaskKind::WakeBlocked(0))]
        );
        assert!(q.is_empty());
        assert_eq!(q.next_deadline(), None);
    }

    #[test]
    fn equal_deadlines_pop_in_insertion_order() {
        let mut q = TaskQueue::new();
        let t = Instant::now();
        q.schedule(t, TaskKind::WakeBlocked(3));
        q.schedule(t, TaskKind::Update);
        let due = q.pop_due(t);
        assert_eq!(
            due,
            vec![(t, TaskKind::WakeBlocked(3)), (t, TaskKind::Update)]
        );
    }

    #[test]
    fn wake_blocked_is_scoped_per_device() {
        let mut q = TaskQueue::new();
        let t = Instant::now();
        q.schedule(t, TaskKind::WakeBlocked(1));
        q.schedule(t, TaskKind::WakeBlocked(2));
        let due = q.pop_due(t);
        assert_eq!(
            due,
            vec![(t, TaskKind::WakeBlocked(1)), (t, TaskKind::WakeBlocked(2))]
        );
    }

    #[test]
    fn late_pops_do_not_stretch_the_period() {
        // 1,000 periods, each popped 30 % of an interval late: re-arming
        // from the popped deadline keeps the cadence; re-arming from the
        // pop time (the old behaviour) would end 300 intervals late.
        let interval = Duration::from_millis(100);
        let start = Instant::now();
        let mut q = TaskQueue::new();
        q.schedule(start + interval, TaskKind::Update);
        let mut last = start;
        for _ in 0..1000 {
            let now = q.next_deadline().unwrap() + interval * 3 / 10;
            let due = q.pop_due(now);
            assert_eq!(due.len(), 1);
            last = due[0].0;
            q.schedule(next_period(last, interval, now), TaskKind::Update);
        }
        assert_eq!(last, start + interval * 1000);
    }

    #[test]
    fn a_stall_skips_to_the_next_future_period_without_a_burst() {
        let interval = Duration::from_millis(100);
        let t0 = Instant::now();
        // Popped 3.5 intervals late: the next firing is the 4th multiple,
        // still on the original grid, and strictly in the future.
        let now = t0 + interval * 7 / 2;
        assert_eq!(next_period(t0, interval, now), t0 + interval * 4);
        // Exactly on a grid point counts as past.
        assert_eq!(
            next_period(t0, interval, t0 + interval * 2),
            t0 + interval * 3
        );
        assert_eq!(next_period(t0, interval, t0), t0 + interval);
    }
}
