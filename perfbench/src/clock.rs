//! Host-time measurement: CPU clocks, a stopwatch, and a fixed reference
//! kernel that measures the host's own speed.
//!
//! The measuring host is a guest with a few CPUs on a shared machine. Its
//! wall clock keeps running while the CPU serves another guest or
//! process, so host-time metrics divide by CPU time instead. CPU time
//! still moves with the host's speed (cache and memory contention from
//! neighbours, clock changes): a memory-touching loop read from 214 to 305
//! M iterations per CPU second within one 15-s run. The reference kernel
//! is run between units of measured work, and each unit's CPU time is
//! divided by the kernel's, which cancels a speed change both see. The
//! kernel is the benchmark's own code, so a change to the program moves
//! the normalised figure exactly as it moves the raw one.

/// Reference CPU time of one [`RefKernel::measure`] call, seconds: a
/// normalised figure reads as if measured on a host where the kernel
/// takes this long.
pub const REF_KERNEL_S: f64 = 1e-3;

#[cfg(target_os = "linux")]
fn clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere the CPU clocks are not available; wall time since the first
/// call stands in for them.
#[cfg(not(target_os = "linux"))]
fn clock_s(_clock: i32) -> f64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
}

/// CPU time this process has used so far, seconds, summed over all its
/// threads, live and ended (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_s() -> f64 {
    clock_s(2)
}

/// CPU time the calling thread has used so far, seconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_s() -> f64 {
    clock_s(3)
}

/// A stopwatch that reads wall and process CPU time together.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Starts both clocks now.
    pub fn start() -> Self {
        Self {
            wall: std::time::Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// `(wall seconds, CPU seconds)` since the start.
    pub fn read(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu,
        )
    }
}

/// Words in the kernel's table (4 MiB: past the private caches, the size
/// of a simulation round's working set). A 256 KiB table, inside the
/// private caches, tracked `dense_fig6` better in one set of ten runs but
/// missed `shard_busy`'s slow-downs in another, so the kernel keeps the
/// shared-cache exposure the simulator has.
const TABLE: usize = 1 << 19;
/// Random table updates per measured call.
const STEPS: u64 = 150_000;

/// The reference kernel: random read-modify-writes over a table with a
/// data-dependent branch, the access pattern of the simulator's queues
/// and arbitration state.
pub struct RefKernel {
    table: Vec<u64>,
    state: u64,
    /// Every measured call's thread CPU time, seconds.
    pub samples: Vec<f64>,
}

impl RefKernel {
    /// A kernel with its table allocated and touched.
    pub fn new() -> Self {
        Self {
            table: (0..TABLE as u64).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once on the calling thread, records and returns its
    /// thread CPU time. A sequential sweep first brings the table back
    /// into cache, so the timed part does not depend on how much of it
    /// the measured work evicted.
    pub fn measure(&mut self) -> f64 {
        let mut sweep = 0u64;
        for v in &self.table {
            sweep = sweep.wrapping_add(*v);
        }
        let c0 = thread_cpu_s();
        let mut x = self.state ^ std::hint::black_box(sweep);
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 40) as usize % TABLE;
            let v = self.table[i];
            acc = if v & 1 == 0 {
                acc.wrapping_add(v ^ x)
            } else {
                acc.rotate_left(7) ^ v
            };
            self.table[i] = v.wrapping_add(x | 1);
        }
        self.state = std::hint::black_box(x ^ acc);
        let t = thread_cpu_s() - c0;
        self.samples.push(t);
        t
    }
}

/// `cpu_s` of measured work, normalised by a kernel call of `kernel_s`
/// made beside it: the CPU time the work would take on the reference
/// host.
pub fn normalise(cpu_s: f64, kernel_s: f64) -> f64 {
    cpu_s / kernel_s * REF_KERNEL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_count_work_not_sleep() {
        // The thread clock: other tests may run beside this one, so the
        // process clock is only checked to include this thread's work.
        let wall = std::time::Instant::now();
        let t0 = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(100));
        let slept = thread_cpu_s() - t0;
        assert!(
            wall.elapsed().as_secs_f64() >= 0.1 && slept < 0.05,
            "sleeping: {slept} s CPU"
        );
        let busy = Stopwatch::start();
        let t0 = thread_cpu_s();
        let mut x = 1u64;
        while busy.read().0 < 0.1 {
            x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
        }
        let worked = thread_cpu_s() - t0;
        let (_, process) = busy.read();
        assert!(worked > 0.005, "working: {worked} s CPU");
        assert!(process >= worked, "process {process} s < thread {worked} s");
    }

    #[test]
    fn kernel_records_each_call() {
        let mut k = RefKernel::new();
        let a = k.measure();
        let b = k.measure();
        assert!(a > 0.0 && b > 0.0);
        assert_eq!(k.samples, vec![a, b]);
        assert_eq!(normalise(2.0 * a, a), 2.0 * REF_KERNEL_S);
    }
}
