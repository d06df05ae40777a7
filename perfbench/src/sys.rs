//! Child processes measured from outside: wall time, exit status and
//! high-water resident memory (`wait4` rusage), without touching the
//! program under test.

use std::io;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Spawn-to-reap wall time.
    pub wall: Duration,
    /// High-water resident set of the child, MiB.
    pub peak_rss_mb: f64,
    /// CPU time the child used (user + system).
    pub cpu: Duration,
}

impl Exit {
    /// Whether the child exited 0.
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// Reaps `child` (started at `started`) and reads its resource usage.
/// The child must not have been waited on through `std`.
pub fn reap(child: Child, started: Instant) -> io::Result<Exit> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child; both out-pointers are
        // valid for writes of their types for the duration of the call.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = started.elapsed();
    // `child` owns the pipe handles only; dropping it never waits.
    drop(child);
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let micros = |t: &Timeval| t.sec * 1_000_000 + t.usec;
    Ok(Exit {
        code,
        wall,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        cpu: Duration::from_micros((micros(&usage.utime) + micros(&usage.stime)).max(0) as u64),
    })
}

/// Runs `cmd` to completion and measures it.
pub fn run(cmd: &mut Command) -> io::Result<Exit> {
    let started = Instant::now();
    let child = cmd.spawn()?;
    reap(child, started)
}

/// Host CPU time counters (`/proc/stat`, all CPUs): (steal, total) ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user and nice).
    let first8 = &fields[..fields.len().min(8)];
    (fields.get(7).copied().unwrap_or(0), first8.iter().sum())
}

/// Share of host CPU time stolen by the hypervisor since `from`
/// (a [`cpu_ticks`] reading).
pub fn steal_since(from: (u64, u64)) -> f64 {
    let now = cpu_ticks();
    let total = now.1.saturating_sub(from.1);
    if total == 0 {
        0.0
    } else {
        now.0.saturating_sub(from.0) as f64 / total as f64
    }
}
