//! The two host facts the benchmark touches: CPU placement and peak
//! resident memory (Linux only).

use std::os::raw::c_int;

#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn sched_getcpu() -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, set: *const CpuSet) -> c_int;
}

/// Pins the process to the CPU it is running on, so it runs single-threaded
/// on one core: the rayon stand-in then sizes its pool to one worker, and
/// the parallel PPO update is bitwise the sequential one. Returns the CPU,
/// or `None` if the kernel refused.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: plain libc calls on a stack-owned, fully initialized mask;
    // pid 0 means the calling thread, inherited by threads spawned later.
    unsafe {
        let cpu = sched_getcpu();
        if cpu < 0 || cpu as usize >= 16 * 64 {
            return None;
        }
        let cpu = cpu as usize;
        let mut set = CpuSet { bits: [0; 16] };
        set.bits[cpu / 64] |= 1 << (cpu % 64);
        (sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0).then_some(cpu)
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
