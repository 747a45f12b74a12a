//! Host CPU time of the benchmark process, and the host's speed.
//!
//! Every job runs on the calling thread (one pool worker runs a job
//! list sequentially), so on an idle host a pass's CPU time is its wall
//! time. On a shared host the wall clock also counts time the process
//! waited for a CPU, and with paravirtual steal-time accounting the
//! kernel leaves out of the CPU clock the time the hypervisor gave the
//! virtual CPU to someone else. So the end-to-end times are CPU times.
//!
//! CPU time still stretches when neighbours on the host contend for
//! caches, memory or the core itself. A [`Calibrator`] times a fixed
//! loop, which is not part of the simulator, between job groups; each
//! group's CPU time is scaled by how much longer than on the reference
//! host the loop took around it. A change to the simulator moves the
//! scaled time as much as the raw one; a slower moment of the host
//! moves it less.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

// `Timespec` below is `struct timespec` only where both fields are 64 bits.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads the CPU clock through 64-bit Linux's clock_gettime");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used so far, on all its threads.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant libc knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Hash-map updates per calibration slice.
const UPDATES: u64 = 40_000;
/// Distinct keys the updates touch.
const KEYS: u64 = 16_384;
/// CPU seconds one slice takes on the reference host: the median slice
/// of a quiet 2-vCPU Intel Xeon (family 6, model 143) virtual machine.
pub const REFERENCE_SLICE_S: f64 = 0.0015;

/// A fixed loop, not part of the simulator, timed between job groups to
/// measure how fast the host runs at that moment. One slice updates a
/// hash map at pseudo-random keys, then sorts its values: branchy,
/// allocating work over a few hundred kilobytes, like a simulator's
/// queues and tables. Contention slows it less than it slows a pass:
/// on the reference host, scaling took out about half of the swing
/// between the slowest and fastest passes of a run.
#[derive(Default)]
pub struct Calibrator {
    /// The most recent slice's CPU seconds: the slice before the next
    /// timed call.
    last: Option<f64>,
    /// Every slice's CPU seconds.
    slices: Vec<f64>,
}

/// Host time of one timed call.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall seconds the call took.
    pub wall_s: f64,
    /// CPU seconds the call took.
    pub cpu_s: f64,
    /// The same at the reference host's speed: `cpu_s` times
    /// [`REFERENCE_SLICE_S`] over the mean of the slices around it.
    pub scaled_s: f64,
}

impl Calibrator {
    /// Runs `f` between two calibration slices (the one before is the
    /// previous call's slice after, when there was one).
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timing) {
        let before = match self.last {
            Some(s) => s,
            None => self.slice(),
        };
        let (wall, cpu) = (Instant::now(), cpu_seconds());
        let out = f();
        let cpu_s = cpu_seconds() - cpu;
        let wall_s = wall.elapsed().as_secs_f64();
        let after = self.slice();
        self.last = Some(after);
        let scaled_s = cpu_s * REFERENCE_SLICE_S * 2.0 / (before + after);
        (
            out,
            Timing {
                wall_s,
                cpu_s,
                scaled_s,
            },
        )
    }

    /// The host's speed relative to the reference host: the reference
    /// slice time over the median slice so far.
    pub fn speed(&self) -> f64 {
        let mut s = self.slices.clone();
        s.sort_by(f64::total_cmp);
        match s.get(s.len() / 2) {
            Some(m) => REFERENCE_SLICE_S / m,
            None => 1.0,
        }
    }

    /// Runs one slice of the loop and returns the CPU seconds it took.
    fn slice(&mut self) -> f64 {
        let start = cpu_seconds();
        // SipHash with fixed keys: the same work in every slice.
        let mut table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *table.entry(x % KEYS).or_insert(0) += x & 0xff;
        }
        let mut values: Vec<u64> = table.into_values().collect();
        values.sort_unstable();
        std::hint::black_box(values);
        let took = cpu_seconds() - start;
        self.slices.push(took);
        took
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let (cpu0, wall0) = (cpu_seconds(), Instant::now());
        let mut x = 0u64;
        while wall0.elapsed().as_secs_f64() < 0.05 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        assert!(x != 1);
        // The process clock also counts the other tests' threads, so
        // only the lower end is checked.
        let cpu = cpu_seconds() - cpu0;
        assert!(cpu > 0.01, "cpu {cpu}");
    }

    #[test]
    fn timed_calls_are_scaled_by_the_slices_around_them() {
        let mut cal = Calibrator::default();
        let ((), t) = cal.time(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(t.wall_s >= 0.005, "{t:?}");
        assert_eq!(cal.slices.len(), 2);
        let (x, t) = cal.time(|| (0..1_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert_eq!(x, 999_999 * 1_000_000 / 2);
        assert_eq!(cal.slices.len(), 3, "the slice between two calls is shared");
        let mean = (cal.slices[1] + cal.slices[2]) / 2.0;
        assert!((t.scaled_s - t.cpu_s * REFERENCE_SLICE_S / mean).abs() < 1e-12);
        assert!(cal.speed() > 0.0);
    }
}
