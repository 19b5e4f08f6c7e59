//! CPU pinning and CPU-time clocks, through the libc that `std` already
//! links (Linux only, like the rest of the benchmark).
//!
//! Unpinned, the threaded cluster's throughput is bimodal from run to
//! run (see the README): whether the generator thread preempts a site
//! thread inside its 200 µs network poll decides between a ~5 µs and a
//! ~283 µs op. So the benchmark gives the cluster's threads every
//! allowed CPU but the last and the generators the last one. If the
//! kernel refuses, the run continues unpinned and says so.

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_WORDS: usize = 16;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// The CPUs this thread may run on, ascending. Empty when the kernel
/// does not say (then nothing is pinned).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and threads it spawns afterwards) to
/// `cpus`. Returns whether the kernel accepted the mask.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; CPU_WORDS];
    for &c in cpus.iter().filter(|c| **c < CPU_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed;
    // pid 0 names the calling thread. An empty mask is refused by the
    // kernel (EINVAL), which reads as "not pinned".
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The pinning plan of one run.
#[derive(Debug, Clone)]
pub struct CpuPlan {
    /// CPUs visible before pinning (`available_parallelism` would read 1
    /// after the main thread pins itself, so it is taken first).
    pub nproc: usize,
    /// CPUs of the cluster's site and TCP threads.
    pub cluster: Vec<usize>,
    /// The CPU of the generator threads.
    pub generator: Vec<usize>,
    /// Whether the main thread's mask was accepted.
    pub pinned: bool,
}

impl CpuPlan {
    /// Splits the allowed CPUs (all but the last for the cluster, the
    /// last for the generators; a single CPU serves both) and pins the
    /// calling thread to the cluster's set, so that every thread a
    /// cluster constructor spawns afterwards inherits it.
    pub fn pin_main() -> Self {
        let allowed = allowed_cpus();
        let (cluster, generator) = match allowed.split_last() {
            Some((last, rest)) if !rest.is_empty() => (rest.to_vec(), vec![*last]),
            _ => (allowed.clone(), allowed.clone()),
        };
        CpuPlan {
            nproc: allowed.len().max(1),
            pinned: pin_current_thread(&cluster),
            cluster,
            generator,
        }
    }
}

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec of the layout the 64-bit
    // Linux ABI defines.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds this process has used, all threads.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}
