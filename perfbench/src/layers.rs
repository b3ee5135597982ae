//! Per-layer metrics: the canonical list, span timing, and the
//! observer attached while tracing.

use crate::{Outcome, Source};
use npu_obs::{Event, Observer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, in report order, with its unit. Layers are
/// the workspace crates. Times and counts are per pass of the workload
/// (see `NOTES.md`); a layer a workload does not run reports 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("npu-dvfs.lagrangian_s", "s"),
    ("npu-dvfs.search_s", "s"),
    ("npu-dvfs.ga_s", "s"),
    ("npu-dvfs.preprocess_s", "s"),
    ("npu-dvfs.table_build_s", "s"),
    ("npu-dvfs.stages", "count"),
    ("npu-dvfs.evaluations", "count"),
    ("npu-dvfs.evals_per_s", "1/s"),
    ("npu-dvfs.unique_eval_ratio", "ratio"),
    ("npu-sim.profile_s", "s"),
    ("npu-sim.profiled_ops", "count"),
    ("npu-perf-model.fit_s", "s"),
    ("npu-power-model.build_s", "s"),
    ("npu-power-model.calibrate_s", "s"),
    ("npu-workloads.generate_s", "s"),
    ("npu-exec.execute_s", "s"),
    ("npu-exec.setfreq_count", "count"),
    ("npu-core.cache_hit_ratio", "ratio"),
    ("npu-core.flight_led", "count"),
    ("npu-core.flight_coalesced", "count"),
    ("npu-core.cold_sessions", "count"),
    ("npu-core.service_pool_s", "s"),
    ("npu-core.admission_s", "s"),
    ("npu-core.pool_busy_frac", "ratio"),
    ("npu-core.fleet_reopt_s", "s"),
    ("npu-core.fleet_warm_reopt_s", "s"),
    ("npu-core.fleet_swaps", "count"),
    ("npu-core.transfer_hit_rate", "ratio"),
    ("npu-core.served_iterations", "count"),
    ("npu-core.unattributed_s", "s"),
    ("npu-core.layer_coverage", "ratio"),
    ("npu-obs.events", "count"),
    ("npu-obs.trace_overhead_frac", "ratio"),
];

/// The minimum share of session wall the layer spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// Named per-layer accumulators.
#[derive(Default)]
pub struct Layers {
    values: HashMap<&'static str, f64>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(LAYERS.iter().any(|(n, _)| *n == name), "{name}");
        *self.values.entry(name).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(LAYERS.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Runs `f` inside a span charged to `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64());
        out
    }

    /// Divides every accumulated value by `passes` (totals → per pass).
    pub fn per_pass(&mut self, passes: usize) {
        for v in self.values.values_mut() {
            *v /= passes.max(1) as f64;
        }
    }

    /// Derives the dvfs ratios from the accumulated counts and times.
    pub fn derive_dvfs(&mut self, unique_evaluations: f64) {
        let evals = self.get("npu-dvfs.evaluations");
        let ga = self.get("npu-dvfs.ga_s");
        self.set(
            "npu-dvfs.evals_per_s",
            if ga > 0.0 { evals / ga } else { 0.0 },
        );
        self.set(
            "npu-dvfs.unique_eval_ratio",
            if evals > 0.0 {
                unique_evaluations / evals
            } else {
                0.0
            },
        );
    }

    /// Writes every metric of [`LAYERS`] into `out`.
    pub fn emit(&self, out: &mut Outcome) {
        for &(name, unit) in LAYERS {
            let source = if unit == "s" {
                Source::Host
            } else {
                Source::Count
            };
            out.push(name, self.get(name), unit, source);
        }
    }
}

/// The observer attached while tracing: it counts every event, as a
/// metrics sink would, so the traced run pays for event construction
/// and delivery.
#[derive(Default)]
pub struct EventCounter {
    events: AtomicU64,
}

impl EventCounter {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
}

impl Observer for EventCounter {
    fn on_event(&self, _event: &Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}
