//! CPU pinning, so that each run places its threads the same way.
//!
//! On a small VM the scheduler sometimes runs the load generator and the
//! server shard on one CPU and sometimes on two, and the round trip
//! differs by a factor of two between the placements. Pinning removes
//! that choice. A thread inherits its creator's mask, so the server
//! shard is placed by pinning the spawning thread before the spawn.

/// CPUs the process could run on when first asked, lowest first (empty
/// if unknown). Cached, because pinning narrows what the kernel reports.
pub fn allowed() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(imp::allowed)
}

/// Restricts the calling thread to `cpu`. Returns false if refused.
pub fn pin(cpu: usize) -> bool {
    imp::pin(cpu)
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    pub fn pin(cpu: usize) -> bool {
        if cpu >= WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) -> bool {
        false
    }
}
