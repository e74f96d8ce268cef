//! Host-speed probing, and times at a nominal host speed.
//!
//! The benchmark runs on a shared host whose speed changes under it: a
//! fixed CPU-bound loop flips between a fast state and one ~1.7× slower,
//! for stretches of a fraction of a second to a few seconds, with no steal
//! time for the guest to see. Wall times taken in different stretches are
//! then not comparable, and a two-second greedy call averages over several.
//!
//! So a timer interrupts the benchmark every [`PERIOD_US`] µs and runs a
//! short fixed probe kernel in the signal handler, recording when it ran and
//! how long it took. A timed interval is reported at the nominal host speed:
//! its wall time, minus the probes that ran inside it, times
//! `NOMINAL_PROBE_NS / m`, where `m` is the mean probe time over the
//! interval (over its nearest [`MIN_PROBES`] probes when it is shorter).
//! The kernel is the benchmark's own code, so no change to the library
//! moves it; a change that makes the library faster shows in full.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Probe time at the nominal host speed: the fast state of a 2-vCPU
/// `Intel(R) Xeon(R) Processor` (Sapphire Rapids) KVM guest.
pub const NOMINAL_PROBE_NS: f64 = 24_000.0;
/// Timer period.
const PERIOD_US: i64 = 2_000;
/// Probe kernel iterations (~24 µs in the fast state).
const PROBE_ITERATIONS: u32 = 1_700;
/// Table entries the probe kernel reads and writes (4 KiB).
const PROBE_TABLE: usize = 512;
/// Probes an interval's speed is averaged over, at the least.
const MIN_PROBES: usize = 8;
/// Probes kept: 2¹⁷ at 2 ms cover 262 s, longer than any timed interval
/// (an interval is converted when it ends).
const RING: usize = 1 << 17;

static ORIGIN: OnceLock<Instant> = OnceLock::new();
/// Probes recorded so far; probe `i` sits at `i % RING`.
static PROBES: AtomicU64 = AtomicU64::new(0);
/// Per probe: when it started (ns since [`ORIGIN`]) and how long it took.
static AT_NS: [AtomicU64; RING] = [const { AtomicU64::new(0) }; RING];
static TOOK_NS: [AtomicU64; RING] = [const { AtomicU64::new(0) }; RING];

/// Nanoseconds since the first call (or since probing started).
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The probe kernel: xorshift-indexed reads and writes into a small table,
/// with a square root and a dB-style power per step.
#[inline(never)]
fn probe_kernel() {
    let mut table = [1.0f64; PROBE_TABLE];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0f64;
    for _ in 0..black_box(PROBE_ITERATIONS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) % PROBE_TABLE;
        let d = (table[i] * 1.000_001 + 0.5).sqrt();
        acc += 10f64.powf(-d / 10.0);
        table[i] = d + (x & 255) as f64 * 1e-3;
    }
    black_box((acc, &table));
}

/// SIGALRM handler: runs the probe and records it. It only computes, reads
/// the monotonic clock and stores to atomics, so it is async-signal-safe.
extern "C" fn on_alarm(_signal: i32) {
    let Some(origin) = ORIGIN.get() else {
        return;
    };
    let at = origin.elapsed().as_nanos() as u64;
    probe_kernel();
    let took = (origin.elapsed().as_nanos() as u64).saturating_sub(at);
    let index = PROBES.load(Ordering::Relaxed);
    let slot = (index as usize) % RING;
    AT_NS[slot].store(at, Ordering::Relaxed);
    TOOK_NS[slot].store(took, Ordering::Relaxed);
    PROBES.store(index + 1, Ordering::Release);
}

#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Itimerval {
    it_interval: Timeval,
    it_value: Timeval,
}

const ITIMER_REAL: i32 = 0;
const SIGALRM: i32 = 14;
const SIG_ERR: usize = usize::MAX;

extern "C" {
    fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    /// glibc's `signal` keeps the handler installed and restarts
    /// interrupted system calls (BSD semantics).
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

fn set_timer(period_us: i64) -> Result<(), String> {
    let period = Timeval {
        tv_sec: 0,
        tv_usec: period_us,
    };
    let value = Itimerval {
        it_interval: period,
        it_value: period,
    };
    // SAFETY: both pointers are valid for the call; a null `old` is allowed.
    if unsafe { setitimer(ITIMER_REAL, &value, std::ptr::null_mut()) } == 0 {
        Ok(())
    } else {
        Err(format!("setitimer: {}", std::io::Error::last_os_error()))
    }
}

/// Starts probing the host every [`PERIOD_US`] µs.
pub fn start() -> Result<(), String> {
    now_ns();
    // SAFETY: `on_alarm` is async-signal-safe (see its doc).
    if unsafe { signal(SIGALRM, on_alarm) } == SIG_ERR {
        return Err(format!("signal: {}", std::io::Error::last_os_error()));
    }
    set_timer(PERIOD_US)
}

/// Stops probing.
pub fn stop() -> Result<(), String> {
    set_timer(0)
}

/// Logical indices `[low, high)` of the probes still in the ring.
fn retained() -> (u64, u64) {
    let high = PROBES.load(Ordering::Acquire);
    (high.saturating_sub(RING as u64), high)
}

fn at_ns(index: u64) -> u64 {
    AT_NS[(index as usize) % RING].load(Ordering::Relaxed)
}

fn took_ns(index: u64) -> u64 {
    TOOK_NS[(index as usize) % RING].load(Ordering::Relaxed)
}

/// First retained probe that started at or after `ns`.
fn first_at_or_after(ns: u64, (mut low, mut high): (u64, u64)) -> u64 {
    while low < high {
        let mid = low + (high - low) / 2;
        if at_ns(mid) < ns {
            low = mid + 1;
        } else {
            high = mid;
        }
    }
    low
}

/// The interval `[start_ns, end_ns)`: its wall time without the probes
/// that ran inside it, and the mean probe time over it (0 without probes).
fn measure(start_ns: u64, end_ns: u64) -> (f64, f64) {
    let range = retained();
    let first = first_at_or_after(start_ns, range);
    let last = first_at_or_after(end_ns, range);
    let probing_ns: u64 = (first..last).map(took_ns).sum();
    let wall_ns = end_ns.saturating_sub(start_ns).saturating_sub(probing_ns);
    // Widen to the nearest probes when the interval holds too few.
    let (mut low, mut high) = (first, last);
    while high - low < MIN_PROBES as u64 && (low > range.0 || high < range.1) {
        if low > range.0 {
            low -= 1;
        }
        if high < range.1 && high - low < MIN_PROBES as u64 {
            high += 1;
        }
    }
    let probes_ns: u64 = (low..high).map(took_ns).sum();
    (
        wall_ns as f64 * 1e-9,
        probes_ns as f64 / (high - low).max(1) as f64,
    )
}

/// Nominal-speed duration of the interval `[start_ns, end_ns)`, in seconds
/// (its wall time when no probe ran).
pub fn nominal_s(start_ns: u64, end_ns: u64) -> f64 {
    match measure(start_ns, end_ns) {
        (wall_s, 0.0) => wall_s,
        (wall_s, probe_ns) => wall_s * NOMINAL_PROBE_NS / probe_ns,
    }
}

/// Probes taken so far and their mean time in ns.
pub fn summary() -> (u64, f64) {
    let (low, high) = retained();
    let total: u64 = (low..high).map(took_ns).sum();
    (high, total as f64 / (high - low).max(1) as f64)
}

/// Times one interval at the nominal host speed.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start_ns: u64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self { start_ns: now_ns() }
    }

    /// Nominal-speed seconds since [`Stopwatch::start`].
    pub fn nominal_s(&self) -> f64 {
        nominal_s(self.start_ns, now_ns())
    }

    /// Wall seconds (without probes) since [`Stopwatch::start`], and the
    /// mean probe time in ns over them.
    pub fn wall_and_probe(&self) -> (f64, f64) {
        measure(self.start_ns, now_ns())
    }
}
