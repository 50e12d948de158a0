//! Process and host facts: the process CPU clock and what `/proc`
//! says (Linux only, like the loopback measurements themselves).

use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and the 64-bit Linux timespec layout");

/// `struct timespec` of the 64-bit Linux ABI.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    // From the C library std already links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU time of the whole process (every thread, living
/// or exited), in nanoseconds.
///
/// `utime`/`stime` in `/proc/self/stat` count the same thing in 10 ms
/// ticks; on a one-second phase that quantum makes medians of
/// different runs read exactly alike, so the nanosecond clock is used.
pub fn process_cpu_ns() -> u64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `Timespec` whose layout is the
    // platform's `struct timespec` (checked by the `cfg` above); the
    // call writes that one struct and retains no pointer.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(
        status, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Processors the kernel lists, whatever this process may use.
pub fn nproc() -> usize {
    fs::read_to_string("/proc/cpuinfo")
        .map(|info| {
            info.lines()
                .filter(|line| line.starts_with("processor"))
                .count()
        })
        .unwrap_or(0)
}

/// Threads this process may run at once.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, read from `.git` in the working directory
/// without starting `git`; "unknown" in an exported tree.
pub fn git_commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(commit) = fs::read_to_string(format!(".git/{reference}")) {
        return commit.trim().to_owned();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|commit| commit.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host-shape record printed with every result.
pub fn record() -> String {
    format!(
        "nproc {}, available_parallelism {}, {}, commit {}",
        nproc(),
        available_parallelism(),
        env!("BENCH_RUSTC_VERSION"),
        git_commit()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 1u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_ns() > before, "no CPU time after 60 ms busy");
    }

    #[test]
    fn host_shape_is_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        assert!(available_parallelism() >= 1);
    }
}
