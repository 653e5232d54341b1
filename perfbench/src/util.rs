//! Small shared pieces: seeded random numbers, raw-sample percentiles,
//! process and per-thread accounting from `/proc`, and the socket wait
//! with sub-millisecond timeouts the generators need.

use std::io;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::path::Path;
use std::time::{Duration, Instant};

/// SplitMix64: a small, seedable generator for the workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }
}

/// FNV-1a over 64-bit words: digests of grants for the identity check.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Nearest-rank percentile of raw samples, or `None` unless at least ten
/// samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| sorted[rank - 1])
}

/// Events per second in each whole `window` between `start` and `end`.
pub fn window_rates(
    events: &[Instant],
    start: Instant,
    end: Instant,
    window: Duration,
) -> Vec<f64> {
    let n = (end.saturating_duration_since(start).as_secs_f64() / window.as_secs_f64()) as usize;
    let mut counts = vec![0u64; n];
    for t in events {
        let i = (t.saturating_duration_since(start).as_secs_f64() / window.as_secs_f64()) as usize;
        if let Some(c) = counts.get_mut(i) {
            *c += 1;
        }
    }
    counts
        .into_iter()
        .map(|c| c as f64 / window.as_secs_f64())
        .collect()
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(all, steal)` CPU ticks of the host view from `/proc/stat`.
pub fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    (
        ticks.iter().take(8).sum(),
        ticks.get(7).copied().unwrap_or(0),
    )
}

/// CPU seconds a thread has run, from the first field of its
/// `schedstat` (nanoseconds on the CPU; time the hypervisor stole from the
/// VM is not in it).
fn task_cpu_s(task: &Path) -> Option<f64> {
    let stat = std::fs::read_to_string(task.join("schedstat")).ok()?;
    let ns: u64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// CPU seconds the calling thread has run.
pub fn own_cpu_s() -> f64 {
    task_cpu_s(Path::new("/proc/thread-self")).unwrap_or(0.0)
}

/// CPU seconds run so far by the threads of the service under test: every
/// thread of this process except the main thread and the benchmark's own
/// `pb-*` threads, read from `/proc/self/task/*`.
pub fn service_cpu_s() -> f64 {
    let pid = std::process::id().to_string();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter(|t| t.file_name().to_string_lossy() != pid)
        .map(|t| t.path())
        .filter(|t| {
            std::fs::read_to_string(t.join("comm")).is_ok_and(|name| !name.starts_with("pb-"))
        })
        .filter_map(|t| task_cpu_s(&t))
        .sum()
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        mask: *const c_void,
    ) -> c_int;
}

pub const POLLIN: c_short = 0x1;
pub const POLLOUT: c_short = 0x4;

/// Waits until `fd` is ready for `events` or `timeout` passes (`None`
/// waits forever). Unlike `epoll_wait`, `ppoll` takes a nanosecond
/// timeout, so an open-loop generator can wake at a request's due time
/// instead of the next whole millisecond.
pub fn wait_ready(
    fd: &impl AsRawFd,
    events: c_short,
    timeout: Option<Duration>,
) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd: fd.as_raw_fd(),
        events,
        revents: 0,
    };
    let ts = timeout.map(|t| Timespec {
        tv_sec: t.as_secs() as c_long,
        tv_nsec: c_long::from(t.subsec_nanos() as i32),
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `pfd` is one valid, initialised pollfd and nfds is 1; `ts_ptr`
    // is null or points at a timespec that outlives the call; a null signal
    // mask leaves the mask unchanged. ppoll writes only `pfd.revents`.
    let rc = unsafe { ppoll(&mut pfd, 1, ts_ptr, std::ptr::null()) };
    match rc {
        -1 => {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(err)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}
