//! Thread CPU time, read through libc (which the standard library already
//! links on Linux), a probe of the core clock, and the process's peak
//! resident set size.

use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the kernel
    // always supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is always available on Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Wall time of a fixed loop whose speed depends on the core clock alone.
///
/// The loop runs eight independent multiply-add chains over an array
/// that stays in L1, about 800k core cycles and no other memory traffic.
/// On the measuring host its fastest time moves in steps of one 100 MHz
/// clock bin (235 µs at 3.4 GHz, 267 at 3.0, ..., 333 at 2.4), and it
/// runs about twice as long while another tenant shares the core.
pub fn clock_probe() -> Duration {
    let start = Instant::now();
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..100_000u64 {
        for (k, x) in lanes.iter_mut().enumerate() {
            *x = x.wrapping_mul(0x9E37_79B9).wrapping_add(i ^ k as u64);
        }
        lanes = std::hint::black_box(lanes);
    }
    std::hint::black_box(lanes);
    start.elapsed()
}

/// The process's peak resident set size (`VmHWM`) in bytes, or `None`
/// where `/proc/self/status` does not report it.
///
/// `VmHWM` includes the executable's and libc's resident code pages. How
/// many of them the kernel maps around each fault depends on the page
/// cache, which moves the peak by a few percent between runs of the same
/// input.
///
/// `getrusage` is not used: its `ru_maxrss` keeps the peak of the image
/// that exec'd this one (here `cargo run`), so it can exceed this
/// process's own peak.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_advances_with_work() {
        let start = thread_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu() > start);
    }

    #[test]
    fn clock_probe_runs_its_loop() {
        // About 800k cycles, so the loop was not optimised away; the upper
        // bound leaves room for an unoptimised build.
        let fastest = (0..20).map(|_| clock_probe()).min().unwrap();
        assert!(fastest > Duration::from_micros(20), "{fastest:?}");
        assert!(fastest < Duration::from_millis(50), "{fastest:?}");
    }

    #[test]
    fn peak_rss_grows_with_touched_memory() {
        let before = peak_rss_bytes().unwrap();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let after = peak_rss_bytes().unwrap();
        assert!(after >= before + (32 << 20), "{before} -> {after}");
    }
}
