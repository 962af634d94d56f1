//! Process accounting read from `/proc`: CPU time and peak RSS of the
//! system under test (a daemon child or the analyze child), never of the
//! load generator.

use std::fs;
use std::io;

/// On-CPU nanoseconds of every live thread of `pid` (the first field of
/// each `/proc/<pid>/task/<tid>/schedstat`). Threads of the system under
/// test live for the whole measured phase, so a delta of two readings is
/// the CPU the phase cost.
pub fn cpu_ns(pid: u32) -> io::Result<u64> {
    let mut total = 0u64;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        let on_cpu = text
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| io::Error::other("malformed schedstat"))?;
        total += on_cpu;
    }
    Ok(total)
}

/// High-water resident set size of `pid`, in KiB (`VmHWM`).
pub fn peak_rss_kib(pid: u32) -> io::Result<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in status"))
}

/// The host's available parallelism, reported with every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Milliseconds a fixed, repository-independent integer loop takes: a
/// reading of the host's current speed, reported beside the results so
/// a slow stretch of the host can be told from a slow build.
pub fn host_probe_ms() -> f64 {
    let started = std::time::Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut table = vec![0u64; 1 << 16];
    for i in 0..4_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(i);
    }
    std::hint::black_box(&table);
    started.elapsed().as_secs_f64() * 1e3
}
