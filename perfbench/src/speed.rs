//! Host speed, from a probe of fixed work timed between passes.
//!
//! CPU time leaves out the time the hypervisor gives our vCPUs to other
//! guests, but not how fast the host runs while they are ours. On the
//! shared 2-vCPU virtual machine the benchmark was built on, that speed
//! drifted by up to 2× between stretches of minutes: `gpt3-table3`
//! sweeps of the same code took 15.8, 11.0, 9.2 and 12.8 CPU seconds in
//! four sets of runs over an hour. The probe is timed in the same
//! stretches as the passes, so the host-time metrics are scaled by
//! [`NOMINAL_PROBE_S`] ÷ (median probe time of the run): they read as
//! CPU seconds at the host speed where the probe takes
//! [`NOMINAL_PROBE_S`].

use crate::{cpu_s, median};
use std::sync::Mutex;

/// Probe CPU time at the nominal host speed, s.
pub const NOMINAL_PROBE_S: f64 = 0.011;

static SAMPLES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Fixed integer, floating-point and L1 work; returns its CPU time.
fn probe() -> f64 {
    let start = cpu_s();
    let mut buf = [0u64; 4096];
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc = 1.0_f64;
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (buf.len() - 1);
        buf[j] = buf[j].wrapping_add(x);
        acc = acc * 0.999_999 + (buf[j] >> 40) as f64 * 1e-9;
    }
    std::hint::black_box((acc, &buf));
    cpu_s() - start
}

/// Times the probe three times. Call it only between timed sections.
pub fn sample() {
    let times = [probe(), probe(), probe()];
    SAMPLES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .extend(times);
}

/// [`NOMINAL_PROBE_S`] ÷ the median probe time so far, and the number
/// of probes.
pub fn factor() -> (f64, usize) {
    let samples = SAMPLES.lock().unwrap_or_else(|e| e.into_inner());
    (NOMINAL_PROBE_S / median(&samples), samples.len())
}
