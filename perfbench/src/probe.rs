//! Process probes: CPU time and peak resident set.

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds this process has used so far, its exited
/// threads included. Read from the process CPU clock rather than
/// `/proc/self/stat`, whose 10 ms ticks are coarser than one `link`
/// episode.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields, the
    // layout of `struct timespec` on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) of this process in MiB, from
/// `/proc/self/status`. `0.0` where `/proc` is missing.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Wall and CPU time of one measured stretch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Start both clocks.
    pub fn start() -> Self {
        Self {
            wall: std::time::Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// Seconds of (wall, CPU) time since [`Stopwatch::start`].
    pub fn stop(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_seconds() - self.cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_live_values() {
        let watch = Stopwatch::start();
        let mut x = 0u64;
        while watch.stop().0 < 0.05 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let (wall, cpu) = watch.stop();
        assert!(cpu > 0.02, "wall {wall} cpu {cpu}");
        assert!(peak_rss_mib() > 0.0);
    }
}
