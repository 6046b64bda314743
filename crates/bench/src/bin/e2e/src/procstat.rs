//! Per-thread CPU accounting read from `/proc`, grouped into thread
//! families by the names the server gives its threads.  This is how the
//! benchmark budgets CPU per layer from outside the program.

use std::collections::BTreeMap;
use std::fs;

/// A group of threads whose CPU is budgeted together.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    Reactor,
    Dispatcher,
    Worker,
    ServerOther,
    Client,
}

impl Family {
    pub const ALL: [Family; 5] = [
        Family::Reactor,
        Family::Dispatcher,
        Family::Worker,
        Family::ServerOther,
        Family::Client,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Reactor => "reactor",
            Family::Dispatcher => "dispatcher",
            Family::Worker => "worker",
            Family::ServerOther => "server_other",
            Family::Client => "client",
        }
    }

    pub fn is_server(self) -> bool {
        self != Family::Client
    }

    /// Classifies a thread by its `comm`.  Every server thread is named
    /// `af-…`; an `af-` thread of no known family is still server work, and
    /// everything else (the main thread running the client library and the
    /// harness) is the client — no thread is ever dropped.
    pub fn of(comm: &str) -> Family {
        if comm.starts_with("af-reactor") {
            Family::Reactor
        } else if comm == "af-dispatcher" {
            Family::Dispatcher
        } else if comm.starts_with("af-audio-") {
            Family::Worker
        } else if comm.starts_with("af-") {
            Family::ServerOther
        } else {
            Family::Client
        }
    }
}

/// Where the numbers came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// `/proc/self/task/*/schedstat`: nanosecond run time, run-queue wait
    /// and timeslice count.
    Schedstat,
    /// `/proc/self/task/*/stat` `utime+stime` in clock ticks: CPU only, at
    /// 10 ms resolution; wait and timeslices are unavailable.
    Stat,
}

impl Source {
    pub fn name(self) -> &'static str {
        match self {
            Source::Schedstat => "schedstat",
            Source::Stat => "stat",
        }
    }
}

/// Cumulative counters of one thread or one family.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    pub cpu_ns: u64,
    /// `None` when the source cannot tell (never reported as zero).
    pub runq_wait_ns: Option<u64>,
    pub timeslices: Option<u64>,
}

impl Counters {
    fn add(&mut self, other: &Counters) {
        self.cpu_ns += other.cpu_ns;
        self.runq_wait_ns = sum_opt(self.runq_wait_ns, other.runq_wait_ns);
        self.timeslices = sum_opt(self.timeslices, other.timeslices);
    }

    /// Counters accumulated since `earlier`.
    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_wait_ns: diff_opt(self.runq_wait_ns, earlier.runq_wait_ns),
            timeslices: diff_opt(self.timeslices, earlier.timeslices),
        }
    }
}

fn sum_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    Some(a? + b?)
}

fn diff_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    Some(a?.saturating_sub(b?))
}

/// Parses a `schedstat` line: `run_ns wait_ns timeslices`.
pub fn parse_schedstat(text: &str) -> Option<Counters> {
    let mut it = text.split_ascii_whitespace().map(|f| f.parse::<u64>().ok());
    let (cpu, wait, slices) = (it.next()??, it.next()??, it.next()??);
    Some(Counters {
        cpu_ns: cpu,
        runq_wait_ns: Some(wait),
        timeslices: Some(slices),
    })
}

/// Kernel clock ticks per second.  `stat` reports CPU in these; Linux has
/// fixed `USER_HZ` at 100 on every architecture this builds for, and there
/// is no libc here to ask `sysconf`.
const USER_HZ: u64 = 100;

/// Parses a `stat` line for `utime + stime`.  The `comm` field may contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<Counters> {
    let rest = &text[text.rfind(')')? + 1..];
    // After `)`: state(3) ppid pgrp session tty tpgid flags minflt cminflt
    // majflt cmajflt utime(14) stime(15).
    let mut it = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = it.next()?.parse().ok()?;
    let stime: u64 = it.next()?.parse().ok()?;
    Some(Counters {
        cpu_ns: (utime + stime) * (1_000_000_000 / USER_HZ),
        runq_wait_ns: None,
        timeslices: None,
    })
}

/// One reading of every thread of this process, keyed by thread id.
pub struct Snapshot {
    pub source: Source,
    threads: BTreeMap<u64, (Family, Counters)>,
}

impl Snapshot {
    /// Reads `/proc/self/task`.  Prefers `schedstat`; if any thread's is
    /// unreadable the whole snapshot uses `stat`, so one snapshot never
    /// mixes resolutions.  (Not named `take`: af-analyze resolves calls by
    /// name, and the server's hot loops call `Option::take`.)
    pub fn of_this_process() -> std::io::Result<Snapshot> {
        let mut tids = Vec::new();
        for entry in fs::read_dir("/proc/self/task")? {
            if let Ok(tid) = entry?.file_name().to_string_lossy().parse::<u64>() {
                tids.push(tid);
            }
        }
        let read =
            |tid: u64, file: &str| fs::read_to_string(format!("/proc/self/task/{tid}/{file}"));
        for source in [Source::Schedstat, Source::Stat] {
            let mut threads = BTreeMap::new();
            let mut complete = true;
            for &tid in &tids {
                // A thread may exit between the listing and the read.
                let Ok(comm) = read(tid, "comm") else {
                    continue;
                };
                let counters = match source {
                    Source::Schedstat => read(tid, "schedstat")
                        .ok()
                        .and_then(|t| parse_schedstat(&t)),
                    Source::Stat => read(tid, "stat").ok().and_then(|t| parse_stat(&t)),
                };
                match counters {
                    Some(c) => {
                        threads.insert(tid, (Family::of(comm.trim_end()), c));
                    }
                    None => complete = false,
                }
            }
            if complete && !threads.is_empty() {
                return Ok(Snapshot { source, threads });
            }
        }
        Err(std::io::Error::other(
            "neither schedstat nor stat is readable under /proc/self/task",
        ))
    }

    /// Per-family counters accumulated since `earlier`.  A thread absent
    /// from `earlier` started in between and counts whole.
    pub fn since(&self, earlier: &Snapshot) -> BTreeMap<Family, Counters> {
        let mut out: BTreeMap<Family, Counters> = Family::ALL
            .iter()
            .map(|&f| {
                let zero = match self.source {
                    Source::Schedstat => Counters {
                        cpu_ns: 0,
                        runq_wait_ns: Some(0),
                        timeslices: Some(0),
                    },
                    Source::Stat => Counters::default(),
                };
                (f, zero)
            })
            .collect();
        for (tid, (family, now)) in &self.threads {
            let delta = match earlier.threads.get(tid) {
                Some((_, before)) if earlier.source == self.source => now.since(before),
                _ => *now,
            };
            out.entry(*family).or_default().add(&delta);
        }
        out
    }
}

/// Nanoseconds the hypervisor has kept CPU `cpu` from this machine so far
/// (`steal` of its `/proc/stat` line).  No thread is charged for them, so
/// they show as a gap between the thread families' CPU and wall time.
pub fn stolen_ns_in(stat: &str, cpu: u32) -> Option<u64> {
    let label = format!("cpu{cpu}");
    let line = stat
        .lines()
        .find(|l| l.split_ascii_whitespace().next() == Some(&label))?;
    // After the label: user nice system idle iowait irq softirq steal.
    let steal: u64 = line.split_ascii_whitespace().nth(8)?.parse().ok()?;
    Some(steal * (1_000_000_000 / USER_HZ))
}

pub fn stolen_ns(cpu: u32) -> Option<u64> {
    stolen_ns_in(&fs::read_to_string("/proc/stat").ok()?, cpu)
}

/// Reads a `Key:\tvalue` line of `/proc/self/status`.
pub fn status_field(key: &str) -> Option<String> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    status_field_in(&text, key)
}

pub fn status_field_in(status: &str, key: &str) -> Option<String> {
    status.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k == key).then(|| v.trim().to_string())
    })
}

/// Expands a kernel CPU list (`0-1,4`) into CPU numbers, ascending.
pub fn parse_cpu_list(list: &str) -> Option<Vec<u32>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(lo.trim().parse::<u32>().ok()?..=hi.trim().parse().ok()?),
            None => cpus.push(part.trim().parse().ok()?),
        }
    }
    cpus.sort_unstable();
    cpus.dedup();
    (!cpus.is_empty()).then_some(cpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_thread_names_and_drops_none() {
        assert_eq!(Family::of("af-reactor-0"), Family::Reactor);
        assert_eq!(Family::of("af-reactor-13"), Family::Reactor);
        assert_eq!(Family::of("af-dispatcher"), Family::Dispatcher);
        assert_eq!(Family::of("af-audio-2"), Family::Worker);
        assert_eq!(Family::of("af-accept-tcp"), Family::ServerOther);
        assert_eq!(Family::of("af-writer-7"), Family::ServerOther);
        assert_eq!(Family::of("e2e"), Family::Client);
        assert_eq!(Family::of(""), Family::Client);
        assert_eq!(Family::of("afterthought"), Family::Client);
        assert!(Family::ALL.iter().filter(|f| f.is_server()).count() == 4);
    }

    #[test]
    fn parses_schedstat_fixture() {
        let c = parse_schedstat("8412345678 912345 40213\n").expect("parses");
        assert_eq!(c.cpu_ns, 8_412_345_678);
        assert_eq!(c.runq_wait_ns, Some(912_345));
        assert_eq!(c.timeslices, Some(40_213));
        assert_eq!(parse_schedstat("12 34"), None);
        assert_eq!(parse_schedstat("a b c"), None);
    }

    #[test]
    fn parses_stat_fixture_with_awkward_comm() {
        let line = "4242 (af (odd) name) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    37 5 0 0 20 0 3 0 123456 1000000 200 18446744073709551615";
        let c = parse_stat(line).expect("parses");
        assert_eq!(c.cpu_ns, 420_000_000);
        assert_eq!(c.runq_wait_ns, None);
        assert_eq!(c.timeslices, None);
        assert_eq!(parse_stat("no parenthesis"), None);
    }

    #[test]
    fn deltas_keep_unavailable_counters_unavailable() {
        let before = Counters {
            cpu_ns: 10,
            runq_wait_ns: None,
            timeslices: None,
        };
        let after = Counters {
            cpu_ns: 25,
            runq_wait_ns: None,
            timeslices: None,
        };
        let d = after.since(&before);
        assert_eq!((d.cpu_ns, d.runq_wait_ns, d.timeslices), (15, None, None));
    }

    #[test]
    fn reads_own_threads() {
        let a = Snapshot::of_this_process().expect("own /proc is readable");
        let mut spin = 0u64;
        for i in 0..2_000_000u64 {
            spin = spin.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(spin);
        let b = Snapshot::of_this_process().expect("own /proc is readable");
        let families = b.since(&a);
        assert_eq!(families.len(), Family::ALL.len());
        assert!(families.values().map(|c| c.cpu_ns).sum::<u64>() < 60_000_000_000);
    }

    #[test]
    fn reads_steal_of_the_named_cpu_only() {
        let stat = "cpu  10 0 10 100 1 0 2 99 0 0\ncpu0 5 0 5 50 1 0 1 41 0 0\n\
                    cpu1 5 0 5 50 0 0 1 58 0 0\ncpu10 1 1 1 1 1 1 1 7 0 0\nintr 5\n";
        assert_eq!(stolen_ns_in(stat, 0), Some(410_000_000));
        assert_eq!(stolen_ns_in(stat, 1), Some(580_000_000));
        assert_eq!(stolen_ns_in(stat, 10), Some(70_000_000));
        assert_eq!(stolen_ns_in(stat, 2), None);
        assert_eq!(stolen_ns_in("cpu0 1 2 3", 0), None);
    }

    #[test]
    fn parses_status_and_cpu_lists() {
        let status = "Name:\te2e\nVmHWM:\t   12345 kB\nCpus_allowed_list:\t0-1\n";
        assert_eq!(
            status_field_in(status, "VmHWM").as_deref(),
            Some("12345 kB")
        );
        assert_eq!(status_field_in(status, "Missing"), None);
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list("2,0-1,7\n"), Some(vec![0, 1, 2, 7]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("a-b"), None);
    }
}
