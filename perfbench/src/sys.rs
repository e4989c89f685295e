//! Process facts the benchmark reads from the OS: resident memory, the
//! core count and the commit under test.

use std::io::Write;
use std::time::Instant;

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`, ...) in MiB.
pub fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.split(':').next() == Some(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Reset the peak-resident mark (`VmHWM`) to the current resident set by
/// writing `5` to `/proc/self/clear_refs`.
pub fn reset_peak_rss() -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .open("/proc/self/clear_refs")?;
    f.write_all(b"5")
}

/// Hand freed heap pages back to the OS, so the resident set at the start
/// of a pass holds live data only and not what an earlier pass freed.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain padding size, touches
        // only the allocator's own free lists, and is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident growth of one measured section: `VmHWM` at its end minus
/// `VmRSS` at its start, with the peak reset at the start. Call
/// [`release_free_heap`] first, or memory freed before the section is
/// reused inside it and the growth reads low.
pub struct PeakRss {
    start_mib: f64,
}

impl PeakRss {
    pub fn start() -> std::io::Result<Self> {
        reset_peak_rss()?;
        let start_mib = status_mib("VmRSS").ok_or_else(no_status)?;
        Ok(PeakRss { start_mib })
    }

    pub fn growth_mib(&self) -> std::io::Result<f64> {
        let hwm = status_mib("VmHWM").ok_or_else(no_status)?;
        Ok(hwm - self.start_mib)
    }
}

fn no_status() -> std::io::Error {
    std::io::Error::other("/proc/self/status has no VmRSS/VmHWM")
}

/// CPU time the hypervisor gave other guests while the virtual machine's
/// CPUs wanted to run (`steal` in `/proc/stat`, all CPUs), in seconds.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    // `/proc/stat` counts in USER_HZ, which Linux fixes at 100.
    Some(ticks / 100.0)
}

/// CPU time all of this process's threads have run so far, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). Time the hypervisor gave other guests is
/// not in it.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` through a valid,
    // exclusively borrowed pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// Wall-clock and process CPU seconds of one measured section.
#[derive(Clone, Copy, Debug, Default)]
pub struct Times {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl std::ops::AddAssign for Times {
    fn add_assign(&mut self, o: Times) {
        self.wall_s += o.wall_s;
        self.cpu_s += o.cpu_s;
    }
}

impl std::ops::Sub for Times {
    type Output = Times;
    fn sub(self, o: Times) -> Times {
        Times {
            wall_s: self.wall_s - o.wall_s,
            cpu_s: self.cpu_s - o.cpu_s,
        }
    }
}

/// Both clocks, started together.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: cpu_s(),
        }
    }

    pub fn elapsed(&self) -> Times {
        Times {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: cpu_s() - self.cpu_s,
        }
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `unknown` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{r}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == r).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
