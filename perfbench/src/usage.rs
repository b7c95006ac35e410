//! Process resource usage: CPU time and peak resident memory from
//! `getrusage(2)`, for this process and for the children it has waited on.

use std::time::Duration;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// Whose usage to read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Who {
    /// This process, all threads included (also those that have exited).
    Process,
    /// Every child this process has waited for.
    Children,
}

/// One reading of CPU time and peak RSS.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size in bytes (for [`Who::Children`], the largest
    /// single child).
    pub peak_rss_bytes: u64,
}

/// Reads the current usage of `who`.
pub fn usage(who: Who) -> Usage {
    let mut ru = Rusage::default();
    let which = match who {
        Who::Process => RUSAGE_SELF,
        Who::Children => RUSAGE_CHILDREN,
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit Linux
    // layout, and `which` is one of the two values getrusage accepts.
    let rc = unsafe { getrusage(which, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed for valid arguments");
    let micros = |t: Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Usage {
        cpu: Duration::from_micros(micros(ru.ru_utime) + micros(ru.ru_stime)),
        peak_rss_bytes: ru.ru_maxrss as u64 * 1024,
    }
}

/// CPU time of `who` spent while `f` runs, with `f`'s result.
pub fn cpu_during<T>(who: Who, f: impl FnOnce() -> T) -> (T, Duration) {
    let before = usage(who).cpu;
    let out = f();
    (out, usage(who).cpu.saturating_sub(before))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_loop_costs_cpu_time() {
        let (sum, cpu) = cpu_during(Who::Process, || {
            let t0 = std::time::Instant::now();
            let mut s = 0u64;
            while t0.elapsed() < Duration::from_millis(50) {
                s = std::hint::black_box(s.wrapping_add(1));
            }
            s
        });
        assert!(sum > 0);
        assert!(cpu >= Duration::from_millis(30), "cpu {cpu:?}");
        assert!(usage(Who::Process).peak_rss_bytes > 0);
    }
}
