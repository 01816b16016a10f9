//! The two Linux interfaces the benchmark uses: its clock and its peak
//! resident set.
//!
//! The clock is the CPU time of the calling thread. The benchmark runs
//! on one thread, so its CPU time is the time the program under test
//! actually ran. Time in which the host runs other work instead shows in
//! no figure: on the shared 2-vCPU VM the reference figures come from,
//! the thread is descheduled for 2–3 % of wall time, in gaps of up to
//! ~6 ms, and a single such gap moves the p99 latency of the half-second
//! window it falls in tenfold. Every cost of the program itself still
//! shows. On a dedicated host the two clocks agree.

use std::ops::Add;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the 64-bit Linux thread CPU-time clock");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` of Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A point on the calling thread's CPU-time clock, used like
/// [`std::time::Instant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Instant(u64);

impl Instant {
    /// The thread's CPU time so far.
    pub fn now() -> Self {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec` for the whole call,
        // which writes nothing else.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the thread CPU-time clock is always readable");
        Instant(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }

    /// CPU time used since `self`.
    pub fn elapsed(&self) -> Duration {
        Instant::now().saturating_duration_since(*self)
    }

    /// CPU time from `earlier` to `self`, zero if `earlier` is later.
    pub fn saturating_duration_since(&self, earlier: Instant) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

/// Peak resident set of this process in MB: `VmHWM` of
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` would also count the
/// resident set of the process that forked this one before `exec`.)
///
/// # Errors
///
/// When the status file cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

impl Add<Duration> for Instant {
    type Output = Instant;

    fn add(self, d: Duration) -> Instant {
        Instant(self.0 + d.as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_while_the_thread_works() {
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
        assert!(Instant::now() > start + Duration::from_millis(19));
    }

    #[test]
    fn peak_rss_is_read() {
        let mb = peak_rss_mb().unwrap();
        assert!(mb > 0.0 && mb < 1e6, "{mb} MB");
    }

    #[test]
    fn sleeping_costs_no_cpu_time() {
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(50));
        assert!(start.elapsed() < Duration::from_millis(25));
    }
}
