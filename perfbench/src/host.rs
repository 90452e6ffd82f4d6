//! Process and host readings from `/proc`: CPU time and peak RSS of this
//! process, and the host record (CPU model, logical CPUs, steal share).

use std::fs;

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on every
/// Linux architecture this runs on).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds this process has used, all threads.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate host CPU ticks: `(total, steal)` from the `cpu` line of
/// `/proc/stat`.
pub fn host_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = v.iter().take(8).sum();
    (total, v.get(7).copied().unwrap_or(0))
}

/// Steal share of host CPU time between two [`host_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    if total == 0 {
        return 0.0;
    }
    after.1.saturating_sub(before.1) as f64 / total as f64
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown-cpu".to_owned())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Returns the allocator's free memory, in every arena, to the host.
pub fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and only releases
    // memory the allocator holds free.
    unsafe {
        malloc_trim(0);
    }
}

/// Restricts the calling thread, and the threads it spawns from now on,
/// to the CPUs in `cpus` (all of them when `cpus` is empty). Returns
/// whether the host accepted the mask; on refusal nothing changes.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    if cpus.is_empty() {
        mask = [u64::MAX; 16];
    }
    for &cpu in cpus {
        if cpu >= 64 * mask.len() {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: pid 0 names the calling thread, and `mask` is an initialized
    // buffer of exactly `size_of_val(&mask)` bytes that the call only reads.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Runs `f` with the calling thread pinned to `cpu`, so threads `f`
/// spawns stay there, then unpins the calling thread.
pub fn on_cpu<T>(cpu: usize, f: impl FnOnce() -> T) -> T {
    pin_current_thread(&[cpu]);
    let out = f();
    pin_current_thread(&[]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane() {
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        let (total, steal) = host_ticks();
        assert!(total >= steal);
        assert_eq!(steal_share((10, 1), (10, 1)), 0.0);
        assert!((steal_share((0, 0), (100, 5)) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn pinning_round_trips() {
        std::thread::spawn(|| {
            assert!(pin_current_thread(&[0]));
            let inherited = std::thread::spawn(|| pin_current_thread(&[]));
            assert!(inherited.join().expect("child thread"));
            assert!(pin_current_thread(&[]));
            assert!(!pin_current_thread(&[usize::MAX]));
        })
        .join()
        .expect("pinned thread");
    }
}
