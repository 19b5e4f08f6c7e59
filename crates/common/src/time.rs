//! Virtual time for the discrete-event harness and the timeout machinery.
//!
//! Time is a monotone `u64` count of **microseconds** since the start of a
//! run. Microsecond resolution comfortably covers the paper's cost scale
//! (per-object processing 2 ms, messages in the hundreds of µs, disk I/O
//! in the ms range) while leaving 580 000 years of headroom.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant of virtual time (µs since run start).
///
/// # Examples
///
/// ```
/// # use pscc_common::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(2);
/// assert_eq!(t.as_micros(), 2_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The start of a run.
    pub const ZERO: Time = Time(0);

    /// Builds an instant from a raw microsecond count.
    pub fn from_micros(us: u64) -> Self {
        Time(us)
    }

    /// Microseconds since run start.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since run start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration elapsed since `earlier`. Saturates at zero.
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, d: Duration) -> Time {
        Time(self.0 + d.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, other: Time) -> Duration {
        self.since(other)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of virtual time (µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Builds a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Builds a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Builds a span from fractional seconds, rounding to µs. Negative
    /// inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        Duration((s.max(0.0) * 1_000_000.0).round() as u64)
    }

    /// The span in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Scales the span by a non-negative factor, rounding to µs.
    pub fn mul_f64(self, k: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * k)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

crate::impl_wire!(struct Duration { 0 });

impl Add for Duration {
    type Output = Duration;
    fn add(self, d: Duration) -> Duration {
        Duration(self.0 + d.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trips() {
        let t = Time::from_micros(500) + Duration::from_millis(1);
        assert_eq!(t.as_micros(), 1_500);
        assert_eq!(t - Time::from_micros(500), Duration::from_millis(1));
        assert_eq!(
            Time::from_micros(3).since(Time::from_micros(9)),
            Duration::ZERO
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(Duration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(Duration::from_secs_f64(0.0015).as_micros(), 1_500);
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_millis(3).mul_f64(1.5).as_micros(), 4_500);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", Duration::from_micros(7)), "7µs");
        assert_eq!(format!("{}", Duration::from_micros(2500)), "2.500ms");
        assert_eq!(format!("{}", Duration::from_secs(3)), "3.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [1u64, 2, 3].iter().map(|&m| Duration::from_millis(m)).sum();
        assert_eq!(total, Duration::from_millis(6));
    }
}
