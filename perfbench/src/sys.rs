//! Process counters (`getrusage`, `/proc/self/status`) and the host stamp
//! every output carries.

use std::time::Duration;

/// `struct timeval` on the 64-bit Linux targets the workspace builds for.
#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: the two times this module reads, then fourteen `long`
/// counters it does not.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _counters: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU time of the whole process (all threads, live and
/// exited), at microsecond resolution.
pub fn process_cpu() -> Duration {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        _counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout of the 64-bit Linux ABI, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let micros = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Duration::from_micros(micros(&usage.ru_utime) + micros(&usage.ru_stime))
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Host-wide CPU time counters from the first line of `/proc/stat`:
/// `(steal, total)` in clock ticks. On a virtual machine, steal is time
/// the hypervisor gave this machine's CPUs to someone else.
pub fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .expect("/proc/stat has a cpu line")
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().expect("numeric /proc/stat field"))
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The host facts every number depends on.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// Cores the process may use.
    pub nproc: usize,
    /// The rayon thread budget the run used.
    pub rayon_threads: String,
    /// The SIMD tier the compute backend resolved.
    pub simd_tier: String,
}

impl HostStamp {
    /// Reads the stamp from the running process.
    pub fn current() -> HostStamp {
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rayon_threads: std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
            simd_tier: blurnet_tensor::default_backend().simd_tier().to_string(),
        }
    }

    /// `nproc=2 rayon_threads=2 simd_tier=…`.
    pub fn line(&self) -> String {
        format!(
            "nproc={} rayon_threads={} simd_tier={}",
            self.nproc, self.rayon_threads, self.simd_tier
        )
    }

    /// The stamp as JSON object members (no braces).
    pub fn json_members(&self) -> String {
        format!(
            "\"nproc\": {}, \"rayon_threads\": \"{}\", \"simd_tier\": \"{}\"",
            self.nproc, self.rayon_threads, self.simd_tier
        )
    }
}
