//! Process introspection: per-thread CPU clocks and peak RSS.
//!
//! CPU time comes from the kernel's per-thread scheduler clock
//! (`clock_gettime` on a thread CPU clock id), which has nanosecond
//! resolution; the `utime`/`stime` tick counters in `/proc/*/stat` only
//! resolve 10 ms, too coarse for two-second measurement windows.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// Let the calling thread's sleeps end within `ns` of their deadline
/// (the default slack is 50 µs). Best effort: failure keeps the default.
pub fn set_timer_slack_ns(ns: u64) {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // no memory of the caller; unused arguments are ignored.
    unsafe {
        prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0);
    }
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clock_id: i32) -> Option<f64> {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds consumed by the calling thread.
pub fn thread_cpu_s() -> f64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID).expect("thread CPU clock is always readable")
}

/// Summed CPU seconds of this process's threads whose name starts with
/// `prefix` (thread names come from `/proc/self/task/<tid>/comm`). The
/// kernel's clock id for another thread of the same process is
/// `(!tid << 3) | CPUCLOCK_PERTHREAD | CPUCLOCK_SCHED`.
pub fn named_threads_cpu_s(prefix: &str) -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0.0 };
    let mut total = 0.0;
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse::<i32>().ok()) else {
            continue;
        };
        let comm = fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.trim_end().starts_with(prefix) {
            total += read_clock((!tid << 3) | 6).unwrap_or(0.0);
        }
    }
    total
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
