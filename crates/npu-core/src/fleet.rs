//! Batch fleet driver: optimize many workloads concurrently over one
//! shared artifact cache and a bounded worker pool.
//!
//! Each workload gets its own freshly-seeded [`Device`] (identical
//! configuration and noise seed), so its result is a pure function of
//! `(config, seed, options, schedule)` — independent of how many
//! workers the fleet runs, which worker picks the workload up, and
//! what else runs in the batch. The cache is shared across workers and
//! across [`FleetRunner::run`] calls: a second batch over the same
//! workloads skips profiling, model fitting and search entirely
//! (verify with [`ArtifactCache::stats`] — the second pass must show
//! zero misses).

use crate::cache::ArtifactCache;
use crate::optimizer::{EnergyOptimizer, OptimizeError, OptimizerConfig};
use crate::report::OptimizationReport;
use crate::serve::ConfigError;
use npu_obs::{Event, ObserverHandle};
use npu_power_model::HardwareCalibration;
use npu_sim::par::par_map;
use npu_sim::{Device, NpuConfig};
use npu_workloads::Workload;
use std::time::Instant;

/// Builder for a [`FleetRunner`], consistent with the `with_*` style of
/// [`OptimizerConfig`] and [`crate::ServeBuilder`]: name the device
/// configuration, chain the optional pieces, `build()`. Calibration
/// defaults to [`HardwareCalibration::ground_truth`] of the
/// configuration when not supplied.
///
/// ```no_run
/// use npu_core::FleetBuilder;
/// use npu_sim::NpuConfig;
/// use npu_workloads::models;
///
/// let cfg = NpuConfig::ascend_like();
/// let runner = FleetBuilder::new(cfg.clone()).with_workers(4).build();
/// let batch = [models::tiny(&cfg), models::tanh_loop(&cfg, 24)];
/// let reports = runner.run(&batch)?;
/// # Ok::<(), npu_core::OptimizeError>(())
/// ```
#[derive(Debug)]
pub struct FleetBuilder {
    cfg: NpuConfig,
    calib: Option<HardwareCalibration>,
    opts: OptimizerConfig,
    cache: ArtifactCache,
    obs: ObserverHandle,
    workers: usize,
    device_seed: Option<u64>,
}

impl FleetBuilder {
    /// Starts a builder for devices of `cfg` with default optimizer
    /// options, ground-truth calibration, a fresh in-memory cache, a
    /// null observer and auto-detected worker count.
    #[must_use]
    pub fn new(cfg: NpuConfig) -> Self {
        Self {
            cfg,
            calib: None,
            opts: OptimizerConfig::default(),
            cache: ArtifactCache::new(),
            obs: ObserverHandle::null(),
            workers: 0,
            device_seed: None,
        }
    }

    /// Sets the hardware calibration every session optimizes against
    /// (defaults to the configuration's ground truth).
    #[must_use]
    pub fn with_calibration(mut self, calib: HardwareCalibration) -> Self {
        self.calib = Some(calib);
        self
    }

    /// Sets the optimizer configuration applied to every workload.
    #[must_use]
    pub fn with_config(mut self, opts: OptimizerConfig) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the number of concurrent sessions (`0` = auto-detect).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Shares an artifact cache (e.g. a persistent or already-warm one).
    #[must_use]
    pub fn with_cache(mut self, cache: ArtifactCache) -> Self {
        self.cache = cache;
        self
    }

    /// Attaches a structured-event observer.
    #[must_use]
    pub fn with_observer(mut self, obs: ObserverHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Pins the per-workload device noise seed.
    #[must_use]
    pub fn with_device_seed(mut self, seed: u64) -> Self {
        self.device_seed = Some(seed);
        self
    }

    /// Assembles the runner.
    #[must_use]
    pub fn build(self) -> FleetRunner {
        let calib = self
            .calib
            .unwrap_or_else(|| HardwareCalibration::ground_truth(&self.cfg));
        FleetRunner {
            cfg: self.cfg,
            calib,
            opts: self.opts,
            cache: self.cache,
            obs: self.obs,
            workers: self.workers,
            device_seed: self.device_seed,
        }
    }

    /// Validates the optimizer configuration, then assembles the runner.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroCount`] for an empty build-frequency grid,
    /// zero GA population/generations or zero profiling passes;
    /// [`ConfigError::BadThreshold`] for a non-finite or non-positive
    /// frequency-adjustment interval, or a performance-loss target
    /// outside `[0, 1)`.
    pub fn try_build(self) -> Result<FleetRunner, ConfigError> {
        if self.opts.build_freqs.is_empty() {
            return Err(ConfigError::ZeroCount {
                field: "fleet.opts.build_freqs",
            });
        }
        if self.opts.ga.population == 0 {
            return Err(ConfigError::ZeroCount {
                field: "fleet.opts.ga.population",
            });
        }
        if self.opts.ga.iterations == 0 {
            return Err(ConfigError::ZeroCount {
                field: "fleet.opts.ga.iterations",
            });
        }
        if self.opts.profile_passes == 0 {
            return Err(ConfigError::ZeroCount {
                field: "fleet.opts.profile_passes",
            });
        }
        if !self.opts.fai_us.is_finite() || self.opts.fai_us <= 0.0 {
            return Err(ConfigError::BadThreshold {
                field: "fleet.opts.fai_us",
                value: self.opts.fai_us,
            });
        }
        let loss = self.opts.ga.perf_loss_target;
        if !loss.is_finite() || !(0.0..1.0).contains(&loss) {
            return Err(ConfigError::BadThreshold {
                field: "fleet.opts.ga.perf_loss_target",
                value: loss,
            });
        }
        Ok(self.build())
    }
}

/// Runs optimization sessions for whole batches of workloads, sharing
/// one content-addressed cache and a bounded worker pool.
///
/// # Examples
///
/// ```no_run
/// use npu_core::FleetRunner;
/// use npu_power_model::HardwareCalibration;
/// use npu_sim::NpuConfig;
/// use npu_workloads::models;
///
/// let cfg = NpuConfig::ascend_like();
/// let calib = HardwareCalibration::ground_truth(&cfg);
/// let runner = FleetRunner::builder(cfg.clone())
///     .with_calibration(calib)
///     .build();
/// let batch = [models::tiny(&cfg), models::tanh_loop(&cfg, 24)];
/// let cold = runner.run(&batch)?; // pays the simulation cost
/// let warm = runner.run(&batch)?; // served from the cache
/// assert_eq!(cold, warm);
/// # Ok::<(), npu_core::OptimizeError>(())
/// ```
#[derive(Debug)]
pub struct FleetRunner {
    cfg: NpuConfig,
    calib: HardwareCalibration,
    opts: OptimizerConfig,
    cache: ArtifactCache,
    obs: ObserverHandle,
    workers: usize,
    device_seed: Option<u64>,
}

impl FleetRunner {
    /// Starts a [`FleetBuilder`] for devices of `cfg` — the primary
    /// construction surface.
    #[must_use]
    pub fn builder(cfg: NpuConfig) -> FleetBuilder {
        FleetBuilder::new(cfg)
    }

    /// Sets the number of concurrent sessions (`0` = auto-detect via
    /// [`npu_sim::par::resolve_threads`]), chainable. Worker count
    /// changes wall time only, never any report.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replaces the artifact cache (e.g. with a persistent or an
    /// already-warm one), chainable.
    #[must_use]
    pub fn with_cache(mut self, cache: ArtifactCache) -> Self {
        self.cache = cache;
        self
    }

    /// Attaches a structured-event observer, chainable. The fleet emits
    /// [`Event::BatchScheduled`] per workload; each session additionally
    /// reports its phases and cache hits/misses through the same
    /// observer (interleaved across workers — group by workload name).
    #[must_use]
    pub fn with_observer(mut self, obs: ObserverHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Pins the per-workload device noise seed (every workload's device
    /// starts from this same seed), chainable. Defaults to the seed
    /// [`Device::new`] uses.
    #[must_use]
    pub fn with_device_seed(mut self, seed: u64) -> Self {
        self.device_seed = Some(seed);
        self
    }

    /// The shared artifact cache (inspect [`ArtifactCache::stats`] for
    /// hit/miss counts, or clone the handle to share the store with
    /// another runner).
    #[must_use]
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    fn make_device(&self) -> Device {
        match self.device_seed {
            Some(seed) => Device::with_seed(self.cfg.clone(), seed),
            None => Device::new(self.cfg.clone()),
        }
    }

    /// Optimizes every workload in `batch`, fanning the sessions out
    /// over the worker pool. Reports come back in batch order and are
    /// identical for every worker count.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed session's [`OptimizeError`] if any
    /// session fails (the other sessions still ran).
    pub fn run(&self, batch: &[Workload]) -> Result<Vec<OptimizationReport>, OptimizeError> {
        let queue_start = Instant::now();
        par_map(self.workers, batch.len(), |worker, i| {
            let workload = &batch[i];
            if self.obs.enabled() {
                self.obs.emit(Event::BatchScheduled {
                    workload: workload.name().to_owned(),
                    worker,
                    queue_wait_us: queue_start.elapsed().as_secs_f64() * 1e6,
                });
            }
            self.run_one(workload)
        })
        .into_iter()
        .collect()
    }

    fn run_one(&self, workload: &Workload) -> Result<OptimizationReport, OptimizeError> {
        let mut dev = self.make_device();
        dev.set_observer(self.obs.clone());
        let mut opt = EnergyOptimizer::new(dev, self.calib);
        let mut session = opt.session(workload, &self.opts);
        session.set_cache(self.cache.clone());
        session.report()
    }
}

/// One-call batch optimization: run every workload in `batch` on
/// fresh devices of `cfg`, concurrently, sharing one in-memory cache.
/// Returns reports in batch order. See [`FleetRunner`] for the
/// configurable form (worker counts, shared/persistent caches,
/// observers).
///
/// # Errors
///
/// Returns the lowest-indexed session's [`OptimizeError`] if any
/// session fails.
pub fn optimize_batch(
    cfg: NpuConfig,
    calib: HardwareCalibration,
    batch: &[Workload],
    opts: &OptimizerConfig,
) -> Result<Vec<OptimizationReport>, OptimizeError> {
    FleetBuilder::new(cfg)
        .with_calibration(calib)
        .with_config(opts.clone())
        .build()
        .run(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_workloads::models;

    fn quick_opts() -> OptimizerConfig {
        let mut o = OptimizerConfig::default().with_fai_us(100.0);
        o.ga = o.ga.with_population(30).with_iterations(40);
        o
    }

    #[test]
    fn batch_matches_individual_sessions_at_any_worker_count() {
        let cfg = NpuConfig::ascend_like();
        let calib = HardwareCalibration::ground_truth(&cfg);
        let batch = [models::tiny(&cfg), models::tanh_loop(&cfg, 12)];

        // Reference: each workload optimized alone, uncached.
        let mut solo = Vec::new();
        for w in &batch {
            let mut opt = EnergyOptimizer::new(Device::new(cfg.clone()), calib);
            solo.push(opt.optimize(w, &quick_opts()).unwrap());
        }

        for workers in [1, 2, 8] {
            let runner = FleetRunner::builder(cfg.clone())
                .with_calibration(calib)
                .with_config(quick_opts())
                .with_workers(workers)
                .build();
            let reports = runner.run(&batch).unwrap();
            assert_eq!(reports, solo, "workers={workers} diverged");
        }
    }

    #[test]
    fn second_batch_is_served_entirely_from_the_cache() {
        let cfg = NpuConfig::ascend_like();
        let calib = HardwareCalibration::ground_truth(&cfg);
        let batch = [models::tiny(&cfg), models::tanh_loop(&cfg, 12)];
        let runner = FleetRunner::builder(cfg)
            .with_calibration(calib)
            .with_config(quick_opts())
            .with_workers(2)
            .build();

        let cold = runner.run(&batch).unwrap();
        let stats = runner.cache().stats();
        assert_eq!(stats.hits(), 0, "cold run cannot hit");
        assert_eq!(stats.profile.misses, 2);
        assert_eq!(stats.model.misses, 2);
        assert_eq!(stats.search.misses, 2);

        runner.cache().reset_stats();
        let warm = runner.run(&batch).unwrap();
        let stats = runner.cache().stats();
        assert_eq!(stats.misses(), 0, "warm run re-ran a cached stage");
        assert_eq!(stats.profile.hits, 2);
        // Execution happens on a fresh device either way, so the warm
        // reports are bit-identical to the cold ones.
        assert_eq!(cold, warm);
    }

    #[test]
    fn builder_validation_rejects_bad_configs() {
        let cfg = NpuConfig::ascend_like();
        let err = |opts: OptimizerConfig| match FleetBuilder::new(cfg.clone())
            .with_config(opts)
            .try_build()
        {
            Err(e) => e,
            Ok(_) => panic!("expected rejection"),
        };

        let mut o = quick_opts();
        o.build_freqs.clear();
        assert_eq!(
            err(o),
            ConfigError::ZeroCount {
                field: "fleet.opts.build_freqs"
            }
        );

        let mut o = quick_opts();
        o.ga.population = 0;
        assert_eq!(
            err(o),
            ConfigError::ZeroCount {
                field: "fleet.opts.ga.population"
            }
        );

        let mut o = quick_opts();
        o.ga.iterations = 0;
        assert_eq!(
            err(o),
            ConfigError::ZeroCount {
                field: "fleet.opts.ga.iterations"
            }
        );

        let mut o = quick_opts();
        o.profile_passes = 0;
        assert_eq!(
            err(o),
            ConfigError::ZeroCount {
                field: "fleet.opts.profile_passes"
            }
        );

        let mut o = quick_opts();
        o.fai_us = -1.0;
        assert_eq!(
            err(o),
            ConfigError::BadThreshold {
                field: "fleet.opts.fai_us",
                value: -1.0
            }
        );

        let mut o = quick_opts();
        o.ga.perf_loss_target = 1.5;
        assert_eq!(
            err(o),
            ConfigError::BadThreshold {
                field: "fleet.opts.ga.perf_loss_target",
                value: 1.5
            }
        );

        assert!(FleetBuilder::new(cfg)
            .with_config(quick_opts())
            .try_build()
            .is_ok());
    }

    #[test]
    fn batch_emits_schedule_events() {
        use npu_obs::MetricsRegistry;
        use std::sync::Arc;

        let cfg = NpuConfig::ascend_like();
        let calib = HardwareCalibration::ground_truth(&cfg);
        let metrics = Arc::new(MetricsRegistry::new());
        let runner = FleetRunner::builder(cfg.clone())
            .with_calibration(calib)
            .with_config(quick_opts())
            .with_workers(2)
            .with_observer(ObserverHandle::from_arc(metrics.clone()))
            .build();
        let batch = [models::tiny(&cfg), models::tanh_loop(&cfg, 12)];
        runner.run(&batch).unwrap();
        assert_eq!(metrics.counter("event.BatchScheduled"), 2);
        assert_eq!(metrics.counter("event.CacheMiss"), 6);
        assert_eq!(metrics.counter("event.CacheHit"), 0);
    }

    #[test]
    fn scheduled_worker_indices_stay_below_the_capped_pool() {
        use npu_obs::Observer;
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Workers(Mutex<Vec<usize>>);
        impl Observer for Workers {
            fn on_event(&self, event: &Event) {
                if let Event::BatchScheduled { worker, .. } = event {
                    self.0.lock().unwrap().push(*worker);
                }
            }
        }

        let cfg = NpuConfig::ascend_like();
        let seen = Arc::new(Workers::default());
        let runner = FleetRunner::builder(cfg.clone())
            .with_calibration(HardwareCalibration::ground_truth(&cfg))
            .with_config(quick_opts())
            .with_workers(8)
            .with_observer(ObserverHandle::from_arc(seen.clone()))
            .build();
        let batch = [models::tiny(&cfg), models::tanh_loop(&cfg, 12)];
        runner.run(&batch).unwrap();
        // Eight requested workers are capped at the two workloads.
        let workers = seen.0.lock().unwrap().clone();
        assert_eq!(workers.len(), 2);
        assert!(workers.iter().all(|&w| w < 2), "{workers:?}");
    }
}
