//! CPU-time clocks (64-bit Linux).
//!
//! On a shared virtual machine the wall-clock time of the same work varies
//! with how much CPU the host grants: identical rounds took from 1x to 2x
//! their CPU time in wall time, depending on whether the second vCPU was
//! available. The CPU time spent on the work does not vary that way, so the
//! benchmark times work in CPU time.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Duration {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock ids are the
    // kernel's fixed process and thread CPU clocks.
    let status = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(status, 0, "clock_gettime({clock}) failed");
    Duration::new(time.tv_sec as u64, time.tv_nsec as u32)
}

/// CPU time consumed so far by all threads of this process.
pub fn process() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (process_start, thread_start) = (process(), thread());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread() > thread_start);
        assert!(process() >= process_start + (thread() - thread_start) / 2);
    }
}
