//! Pluggable time sources for record sinks.
//!
//! Sinks stamp every [`crate::Record`] with a `ts` (microseconds since
//! the sink's epoch). Historically that stamp came straight from
//! [`Instant`], which makes traces wall-clock-dependent: two runs of the
//! same seeded workload produce byte-different JSONL. The [`Clock`] trait
//! makes the source pluggable:
//!
//! * [`MonotonicClock`] — the default, elapsed time since construction;
//! * [`VirtualClock`] — a deterministic counter that advances by a fixed
//!   step per reading, so golden-trace fixtures are byte-stable
//!   *including* `ts`, and tests can assert on exact timestamps.
//!
//! A clock is consulted once per record, never on the emitting side, so
//! instrumented code stays clock-free.

use std::time::Instant;

/// A source of microsecond timestamps for record stamping.
///
/// `now_micros` takes `&mut self` so deterministic clocks can advance
/// internal state per reading.
pub trait Clock {
    /// Microseconds since this clock's epoch.
    fn now_micros(&mut self) -> u64;
}

/// Wall-clock time elapsed since construction (the default).
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_micros(&mut self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

/// A deterministic clock: starts at an epoch value and advances by a
/// fixed step on every reading.
///
/// With `start = 0, step = 1` the `k`-th record stamped through a sink is
/// `ts = k` — a stable record sequence number rather than wall time. Used
/// by the golden-trace fixtures so the pinned bytes include `ts`.
#[derive(Debug, Clone)]
pub struct VirtualClock {
    now: u64,
    step: u64,
}

impl VirtualClock {
    /// A clock reading `start`, then `start + step`, `start + 2·step`, …
    pub fn new(start: u64, step: u64) -> Self {
        VirtualClock { now: start, step }
    }

    /// The conventional golden-trace clock: readings 0, 1, 2, …
    pub fn sequence() -> Self {
        VirtualClock::new(0, 1)
    }

    /// Jumps the clock to an absolute value (e.g. to interleave phases).
    pub fn set(&mut self, now: u64) {
        self.now = now;
    }

    /// The value the next reading will return.
    pub fn peek(&self) -> u64 {
        self.now
    }
}

impl Clock for VirtualClock {
    fn now_micros(&mut self) -> u64 {
        let t = self.now;
        self.now = self.now.saturating_add(self.step);
        t
    }
}

/// Boxed clocks forward, so sinks can hold `Box<dyn Clock>`.
impl<C: Clock + ?Sized> Clock for Box<C> {
    fn now_micros(&mut self) -> u64 {
        (**self).now_micros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_monotone() {
        let mut c = MonotonicClock::new();
        let a = c.now_micros();
        let b = c.now_micros();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_is_deterministic() {
        let mut c = VirtualClock::sequence();
        assert_eq!(c.now_micros(), 0);
        assert_eq!(c.now_micros(), 1);
        assert_eq!(c.peek(), 2);
        let mut stepped = VirtualClock::new(100, 10);
        assert_eq!(stepped.now_micros(), 100);
        assert_eq!(stepped.now_micros(), 110);
        stepped.set(7);
        assert_eq!(stepped.now_micros(), 7);
    }

    #[test]
    fn virtual_clock_saturates() {
        let mut c = VirtualClock::new(u64::MAX - 1, 5);
        assert_eq!(c.now_micros(), u64::MAX - 1);
        assert_eq!(c.now_micros(), u64::MAX);
        assert_eq!(c.now_micros(), u64::MAX);
    }
}
