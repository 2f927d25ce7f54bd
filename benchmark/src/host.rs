//! What the benchmark reads from the host: core count (thread sizing),
//! the process's peak resident set, and the clocks operations are timed
//! on.

use std::time::Instant;

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads of a serving workload: one core is the generator's,
/// the rest (at most three) serve.
pub fn serving_workers(nproc: usize) -> usize {
    (nproc.clamp(1, 4) - 1).max(1)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time the calling thread has used, ns. The kernel stops this
/// clock while the thread is off the CPU — pre-empted by another
/// process, or (the guest kernel accounts for steal time) because the
/// hypervisor gave the virtual CPU to another guest.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the C layout the
    // 64-bit Linux ABI gives it; the call writes it and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Which clock a single-caller workload times its operations on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClock {
    /// Wall clock: for calls of a few microseconds, which two system
    /// calls per operation would distort, and which an interruption
    /// rarely hits (the quiet-side statistic drops those it does).
    Wall,
    /// The calling thread's CPU clock: for calls of 0.3 ms and more,
    /// which on a busy host are interrupted more often than not. The
    /// call never blocks, so on a quiet host the two clocks agree.
    ThreadCpu,
}

/// A running clock of either kind, read in ns since it was started.
pub struct Stopwatch {
    clock: OpClock,
    wall: Instant,
    cpu_origin_ns: u64,
}

impl Stopwatch {
    pub fn start(clock: OpClock) -> Self {
        Self {
            clock,
            wall: Instant::now(),
            cpu_origin_ns: match clock {
                OpClock::Wall => 0,
                OpClock::ThreadCpu => thread_cpu_ns(),
            },
        }
    }

    pub fn now_ns(&self) -> u64 {
        match self.clock {
            OpClock::Wall => self.wall.elapsed().as_nanos() as u64,
            OpClock::ThreadCpu => thread_cpu_ns() - self.cpu_origin_ns,
        }
    }

    /// Wall-clock seconds since the start, whichever clock times the
    /// operations: what `--seconds` is counted in.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_thread_cpu_clock_stops_while_the_thread_sleeps() {
        let sw = Stopwatch::start(OpClock::ThreadCpu);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = sw.now_ns();
        assert!(slept < 10_000_000, "{slept} ns of CPU during a sleep");
        let mut x = 0u64;
        while sw.wall_s() < 0.06 {
            x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
        }
        assert!(sw.now_ns() > slept + 10_000_000, "spinning uses CPU time");
    }

    #[test]
    fn worker_sizing_rule() {
        assert_eq!(serving_workers(1), 1);
        assert_eq!(serving_workers(2), 1);
        assert_eq!(serving_workers(3), 2);
        assert_eq!(serving_workers(4), 3);
        assert_eq!(serving_workers(64), 3);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
    }
}
