//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gpt3-table3|catalog-service|fleet-drift> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up (timed several
//! times; the median is `setup_s`), then repeats whole passes of its
//! work until `--seconds` have elapsed, checks the outputs, and prints
//! one JSON object as the last line of standard output. With
//! `--trace 0` the object holds the end-to-end metrics, measured with
//! no observer attached (host times are process CPU time, see
//! [`cpu_s`]); with `--trace 1` it holds the per-layer
//! metrics, taken from spans this benchmark records around calls into
//! each crate's public functions. A human-readable table goes to
//! standard error. `NOTES.md` beside this package defines every metric.

mod catalog;
mod fleet;
mod gpt3;
mod heap;
mod layers;
mod pipeline;
mod speed;

use npu_core::{MeasuredIteration, OptimizationReport};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// Where a metric's value comes from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Measured on the host: CPU or wall time, throughput or memory.
    Host,
    /// A deterministic output of the `npu-sim` device model.
    Sim,
    /// A count or ratio the program or the trace reports.
    Count,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub source: Source,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (sessions, requests or device-epochs).
    pub attempted: u64,
    /// Operations that failed, were rejected, quarantined or evicted.
    pub failed: u64,
    /// Output-check failures, one line each; any entry fails the run.
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, source: Source) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            source,
        });
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// Settings shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The worker-thread budget: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// AICore and SoC energy of one measured iteration, J.
pub fn iteration_j(m: &MeasuredIteration) -> (f64, f64) {
    (m.aicore_w * m.time_s(), m.soc_w * m.time_s())
}

/// Pushes the simulated outcome of cold `optimize` sessions, each with
/// its loss target: energy of the optimized iteration over the all-fmax
/// baseline (AICore, SoC), measured loss over target, and AICore J per
/// optimized iteration unless `aicore_j` supplies a served figure.
pub fn push_sim(out: &mut Outcome, rows: &[(&OptimizationReport, f64)], aicore_j: Option<f64>) {
    let (mut aicore, mut soc, mut loss, mut joules) = (vec![], vec![], vec![], vec![]);
    for (r, target) in rows {
        let (opt_a, opt_s) = iteration_j(&r.optimized);
        let (base_a, base_s) = iteration_j(&r.baseline);
        aicore.push(opt_a / base_a);
        soc.push(opt_s / base_s);
        loss.push(r.perf_loss() / target);
        joules.push(opt_a);
    }
    out.push("aicore_energy_ratio", mean(&aicore), "ratio", Source::Sim);
    out.push("soc_energy_ratio", mean(&soc), "ratio", Source::Sim);
    out.push("loss_to_target", mean(&loss), "ratio", Source::Sim);
    out.push(
        "aicore_j_per_iter",
        aicore_j.unwrap_or_else(|| mean(&joules)),
        "J",
        Source::Sim,
    );
}

/// Process CPU time so far (all threads), s. Host-time metrics are CPU
/// time, not wall time: on a shared virtual machine the hypervisor
/// hands our vCPUs to other guests (steal) for a minute at a time, which
/// moves wall figures by 20–30 % between runs of the same code, while
/// CPU time leaves the stolen time out. `main` then scales them to a
/// nominal host speed (see `speed.rs`). Wall times stay on standard
/// error and in the traced run.
#[cfg(target_os = "linux")]
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` matches the C layout of `struct timespec` on 64-bit
    // Linux and outlives the call; CLOCK_PROCESS_CPUTIME_ID is 2.
    let rc = unsafe { clock_gettime(2, &mut t) };
    if rc == 0 {
        t.sec as f64 + t.nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

#[cfg(not(target_os = "linux"))]
pub fn cpu_s() -> f64 {
    f64::NAN
}

/// Wall and process CPU time of one timed section, s.
#[derive(Clone, Copy)]
pub struct Times {
    pub wall: f64,
    pub cpu: f64,
}

/// Starts timing a section; [`Stopwatch::stop`] reads both clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    pub fn stop(&self) -> Times {
        Times {
            wall: self.wall.elapsed().as_secs_f64(),
            cpu: cpu_s() - self.cpu,
        }
    }
}

/// One round of cold reference sessions: `(times, report)` per session.
pub type Round = Vec<(Times, OptimizationReport)>;

/// Cold reference `optimize` sessions over a workload's own tables.
/// Round 0 is timed again after every measured pass: its mean session
/// CPU time (the tables differ in size, so a per-session median would
/// jump between tables), median over passes, is `session_cpu_p50_s`,
/// and a burst of host noise spoils one sample rather than all of them.
/// The simulated metrics come from rounds `0..rounds`, a fixed set for
/// a fixed seed.
pub struct Reference<F> {
    round: F,
    rounds: usize,
    means: Vec<f64>,
    first: Option<Vec<OptimizationReport>>,
}

impl<F: FnMut(usize) -> Result<Round, String>> Reference<F> {
    pub fn new(rounds: usize, round: F) -> Self {
        Self {
            round,
            rounds,
            means: Vec::new(),
            first: None,
        }
    }

    /// Times round 0 once more; its reports must equal the first ones.
    pub fn time(&mut self, out: &mut Outcome) {
        match (self.round)(0) {
            Ok(rows) => {
                self.means
                    .push(mean(&rows.iter().map(|(t, _)| t.cpu).collect::<Vec<_>>()));
                let reports: Vec<_> = rows.into_iter().map(|(_, r)| r).collect();
                let first = self.first.get_or_insert_with(|| reports.clone());
                out.check(*first == reports, || {
                    "a repeated reference session differs".into()
                });
            }
            Err(e) => out.check(false, || format!("reference session: {e}")),
        }
    }

    /// `session_cpu_p50_s` and the reports of rounds `0..rounds`.
    pub fn finish(mut self, out: &mut Outcome) -> (f64, Vec<OptimizationReport>) {
        if self.first.is_none() {
            self.time(out);
        }
        let mut reports = self.first.take().unwrap_or_default();
        for r in 1..self.rounds {
            match (self.round)(r) {
                Ok(rows) => reports.extend(rows.into_iter().map(|(_, report)| report)),
                Err(e) => out.check(false, || format!("reference session: {e}")),
            }
        }
        (median(&self.means), reports)
    }
}

/// Runs `setup` [`SETUP_REPS`] times `batch` times and returns the
/// median over reps of the mean CPU time of one set-up (see
/// [`cpu_s`]), with the last result. A batch above 1 is for set-ups of
/// microseconds, whose single timings scatter with the timer and the
/// caches.
pub fn timed_setup<T>(batch: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut cpus = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let clock = Stopwatch::start();
        for _ in 0..batch.max(1) {
            // Drop the previous set-up first, so set-ups never overlap.
            drop(last.take());
            last = Some(setup());
        }
        cpus.push(clock.stop().cpu / batch.max(1) as f64);
    }
    (median(&cpus), last.expect("SETUP_REPS >= 1"))
}

fn json_number(v: f64) -> String {
    // Rust's shortest round-trip form: every digit as measured.
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <gpt3-table3|catalog-service|fleet-drift> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        speed::sample();
    }
    let mut out = match args.workload.as_str() {
        "gpt3-table3" => gpt3::run(&args),
        "catalog-service" => catalog::run(&args),
        "fleet-drift" => fleet::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        speed::sample();
        let (factor, probes) = speed::factor();
        for m in &mut out.metrics {
            if m.source == Source::Host {
                match m.unit {
                    "s" => m.value *= factor,
                    "1/s" => m.value /= factor,
                    _ => {}
                }
            }
        }
        out.notes.push(format!(
            "host-time metrics scaled to the nominal host speed by {factor:.4} \
             (median of {probes} probes)"
        ));
    }
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.check_failures
                .push(format!("metric {} is not finite", m.name));
        }
    }
    let correct = out.check_failures.is_empty();
    let attempted = out.attempted.max(1);
    // A run whose check fails counts every operation in it as failed.
    let failed = if correct { out.failed } else { attempted };
    if !args.trace {
        out.push(
            "success_frac",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
            Source::Count,
        );
    }

    eprintln!(
        "# {} seed={} trace={} attempted={} failed={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        attempted,
        failed
    );
    for m in &out.metrics {
        let tag = match m.source {
            Source::Host => "host",
            Source::Sim => "sim",
            Source::Count => "count",
        };
        eprintln!("  {:<34} {:>16.6} {:<6} [{tag}]", m.name, m.value, m.unit);
    }
    for note in &out.notes {
        eprintln!("  {note}");
    }
    for f in &out.check_failures {
        eprintln!("  CHECK FAILED: {f}");
    }

    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(v),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
