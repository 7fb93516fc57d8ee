//! What the machine is, read once at start and printed with the numbers:
//! every result here depends on the thread count and the cache sizes.

use std::fs;

#[derive(Debug, Clone)]
pub struct SysInfo {
    /// `std::thread::available_parallelism`: the thread count of the
    /// kernel windows, the server's worker pool and the client count.
    pub nproc: usize,
    pub cpu_model: String,
    /// Largest private cache per core and the last-level cache, bytes.
    pub l2_bytes: u64,
    pub llc_bytes: u64,
    pub mem_available_bytes: u64,
}

fn parse_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, unit) = text.split_at(
        text.find(|c: char| !c.is_ascii_digit())
            .unwrap_or(text.len()),
    );
    let n: u64 = digits.parse().ok()?;
    Some(match unit.trim() {
        "K" | "kB" | "KB" => n << 10,
        "M" | "MB" => n << 20,
        "G" | "GB" => n << 30,
        "" => n,
        _ => return None,
    })
}

/// Size of cpu0's cache at `level`, preferring a data or unified cache.
fn cache_bytes(level: u32) -> Option<u64> {
    (0..8).find_map(|index| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let lvl: u32 = fs::read_to_string(format!("{dir}/level"))
            .ok()?
            .trim()
            .parse()
            .ok()?;
        let kind = fs::read_to_string(format!("{dir}/type")).ok()?;
        (lvl == level && kind.trim() != "Instruction")
            .then(|| parse_size(&fs::read_to_string(format!("{dir}/size")).ok()?))
            .flatten()
    })
}

/// This control group's memory limit, when it has one: `MemAvailable`
/// describes the machine, not what this process may use.
fn cgroup_limit() -> Option<u64> {
    [
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ]
    .iter()
    .find_map(|path| fs::read_to_string(path).ok()?.trim().parse().ok())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    fs::read_to_string(path).ok()?.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

impl SysInfo {
    pub fn read() -> SysInfo {
        let l2 = cache_bytes(2).unwrap_or(1 << 20);
        SysInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".into()),
            l2_bytes: l2,
            llc_bytes: cache_bytes(3).unwrap_or(l2),
            mem_available_bytes: proc_field("/proc/meminfo", "MemAvailable")
                .and_then(|v| parse_size(&v))
                .unwrap_or(1 << 30)
                .min(cgroup_limit().unwrap_or(u64::MAX)),
        }
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Words of a CPU mask: room for 1,024 CPUs, as glibc's `cpu_set_t`.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// Pin the calling thread to the `slot`-th CPU it is allowed on,
    /// wrapping. Returns whether the kernel accepted it.
    pub fn pin_current_thread(slot: usize) -> bool {
        let mut allowed = [0u64; WORDS];
        // SAFETY: `allowed` is a live, writable buffer of exactly the
        // byte length passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
            return false;
        }
        let cpus: Vec<usize> = (0..WORDS * 64)
            .filter(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        let Some(&cpu) = cpus.get(slot % cpus.len().max(1)) else {
            return false;
        };
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the byte length
        // passed and is only read; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
    }
}

/// Pin the calling thread to the `slot`-th CPU this process may use.
/// Where that cannot be done the thread stays where the scheduler puts
/// it.
pub fn pin_current_thread(slot: usize) -> bool {
    #[cfg(target_os = "linux")]
    return affinity::pin_current_thread(slot);
    #[cfg(not(target_os = "linux"))]
    {
        let _ = slot;
        false
    }
}

fn status_mib(key: &str) -> f64 {
    proc_field("/proc/self/status", key)
        .and_then(|v| parse_size(&v))
        .map_or(0.0, |bytes| bytes as f64 / (1u64 << 20) as f64)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

/// Resident set of this process right now (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

/// Bytes this process has caused to be written to the storage layer
/// (`write_bytes` of `/proc/self/io`; socket traffic is not counted).
pub fn storage_bytes_written() -> u64 {
    proc_field("/proc/self/io", "write_bytes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_their_units() {
        assert_eq!(parse_size("4096K"), Some(4 << 20));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("16482304 kB"), Some(16482304 << 10));
        assert_eq!(parse_size("12"), Some(12));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_thread_can_be_pinned_to_any_slot() {
        std::thread::spawn(|| {
            assert!(pin_current_thread(0));
            // Slots wrap around the allowed CPUs; pinned to one CPU, the
            // thread has one slot left, and every slot is that one.
            assert!(pin_current_thread(5));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn this_process_has_a_resident_set() {
        assert!(rss_mib() > 0.0 && peak_rss_mib() >= rss_mib());
        assert!(SysInfo::read().nproc >= 1);
    }
}
