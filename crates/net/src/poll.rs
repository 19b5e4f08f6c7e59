//! One wait over many sockets: `ppoll(2)` (`poll(2)` off Linux), through
//! the libc that `std` already links.

use std::ffi::{c_int, c_short};
use std::os::fd::RawFd;
use std::time::Duration;

/// Readable, or a peer waiting in a listener's queue.
pub(crate) const POLLIN: c_short = 0x1;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x4;

/// `struct pollfd`. A negative `fd` is skipped by the kernel.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Waits for `events` on `fd`; `None` holds a slot the wait skips.
    pub(crate) fn new(fd: Option<RawFd>, events: c_short) -> Self {
        PollFd {
            fd: fd.unwrap_or(-1),
            events,
            revents: 0,
        }
    }

    /// Whether the wait reported anything on this slot: the events asked
    /// for, or an error or hang-up, which the next read or write reports.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

#[cfg(target_os = "linux")]
#[repr(C)]
struct Timespec {
    sec: std::ffi::c_long,
    nsec: std::ffi::c_long,
}

extern "C" {
    #[cfg(target_os = "linux")]
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> c_int;
    #[cfg(not(target_os = "linux"))]
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_uint, timeout_ms: c_int) -> c_int;
}

#[cfg(test)]
thread_local! {
    /// Waits made on this thread (the wait-count tests read it).
    pub(crate) static WAITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Waits until one of `fds` is ready or `timeout` (`None`: no limit) has
/// passed; a zero timeout only looks. An interrupted wait returns as if
/// it had timed out, which every caller treats as "look again".
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
    #[cfg(test)]
    WAITS.with(|n| n.set(n.get() + 1));
    #[cfg(target_os = "linux")]
    {
        let n = fds.len() as std::ffi::c_ulong;
        use std::ffi::c_long;
        let ts = timeout.map(|t| Timespec {
            sec: t.as_secs().min(c_long::MAX as u64) as c_long,
            nsec: t.subsec_nanos() as c_long,
        });
        let ts = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: `fds` is a live, writable array of `n` `struct pollfd`s;
        // `ts` is null or points at a timespec that outlives the call; a
        // null signal mask leaves the thread's mask alone.
        unsafe { ppoll(fds.as_mut_ptr(), n, ts, std::ptr::null()) };
    }
    #[cfg(not(target_os = "linux"))]
    {
        let n = fds.len() as std::ffi::c_uint;
        // Rounded up, so a wait is never shorter than asked.
        let ms = timeout.map_or(-1, |t| {
            t.as_micros().div_ceil(1_000).min(c_int::MAX as u128) as c_int
        });
        // SAFETY: `fds` is a live, writable array of `n` `struct pollfd`s.
        unsafe { poll(fds.as_mut_ptr(), n, ms) };
    }
}
