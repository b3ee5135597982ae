//! `fleet-drift`: a `FleetController` serving the fleet bench's
//! scenario at `workers = nproc` — a 48-op alternating compute/load
//! stream on 20 µs-SetFreq hardware, 64 devices with spread silicon and
//! drift, cross-device transfer on. The seed is the fleet seed. A pass
//! is one `FleetController::run` on a fresh controller (cold cache).

use crate::layers::{EventCounter, Layers};
use crate::{
    median, nproc, push_sim, timed_setup, Args, Outcome, Reference, Round, Source, Stopwatch, Times,
};
use npu_core::{
    DriftDetectorConfig, EnergyOptimizer, FleetController, FleetOutcome, OptimizerConfig,
    ServeOptions,
};
use npu_obs::ObserverHandle;
use npu_power_model::HardwareCalibration;
use npu_sim::{
    ConfigSpread, Device, DriftModel, FreqMhz, NpuConfig, OpDescriptor, Scenario, Schedule,
};
use npu_workloads::Workload;
use std::time::Instant;

const DEVICES: usize = 64;
const EPOCHS: usize = 3;
const EPOCH_ITERATIONS: usize = 16;
/// The small fleet re-run at 1 and at `nproc` workers for the digest
/// check.
const CHECK_DEVICES: usize = 8;
const CHECK_EPOCHS: usize = 2;
/// Set-ups per timed batch: one set-up takes microseconds.
const SETUP_BATCH: usize = 200;
/// Devices of the one-epoch warm-up fleet run before set-up.
const WARMUP_DEVICES: usize = 4;
/// Devices per round of cold reference `optimize` sessions; round `r`
/// uses the next `REFERENCE_DEVICES` fleet devices.
const REFERENCE_DEVICES: usize = 8;
const REFERENCE_ROUNDS: usize = 5;

/// Compute-bound ops interleaved with memory-bound ops of varying
/// intensity, so the stage table is wide.
fn serve_workload(n: usize) -> Workload {
    Workload::new(
        "FleetServe",
        Schedule::new(
            (0..n)
                .map(|i| {
                    if i % 2 == 0 {
                        OpDescriptor::compute(format!("Mm{i}"), Scenario::PingPongIndependent)
                            .blocks(4)
                            .ld_bytes_per_block(64.0 * 1024.0)
                            .core_cycles_per_block(30_000.0 + 2_000.0 * i as f64)
                            .activity(6.0)
                    } else {
                        OpDescriptor::compute(format!("Ld{i}"), Scenario::PingPongIndependent)
                            .blocks(32)
                            .ld_bytes_per_block((4 << 20) as f64 + (i << 14) as f64)
                            .l2_hit_rate(0.1)
                            .core_cycles_per_block(50.0)
                            .activity(2.0)
                    }
                })
                .collect(),
        ),
    )
}

struct FleetScenario {
    base: NpuConfig,
    spread: ConfigSpread,
    drift: DriftModel,
    opts: OptimizerConfig,
    serve: ServeOptions,
    workload: Workload,
    generate_s: f64,
}

fn scenario() -> Result<FleetScenario, String> {
    let base = NpuConfig::builder()
        .thermal_tau_us(2_000.0)
        .setfreq_latency_us(20.0)
        .noise(0.0, 0.0, 0.0)
        .build()
        .map_err(|e| format!("config: {e:?}"))?;
    let drift = DriftModel::ambient_ramp(-300.0, 15.0)
        .with_gamma_aging(-9.0, 0.45)
        .with_theta_aging(-9.0, 0.45);
    let spread = ConfigSpread {
        beta_frac: 0.01,
        theta_frac: 0.01,
        gamma_frac: 0.01,
        k_frac: 0.01,
        ambient_range_c: 1.0,
        drift_frac: 0.4,
    };
    let grid: Vec<FreqMhz> = (1000..=1800).step_by(100).map(FreqMhz::new).collect();
    let mut opts = OptimizerConfig::default()
        .with_threads(1)
        .with_loss_target(0.50)
        .with_fai_us(25.0)
        .with_build_freqs(grid);
    opts.ga = opts.ga.with_population(60).with_iterations(240);
    let serve = ServeOptions {
        detector: DriftDetectorConfig {
            window: 4,
            threshold: 1e-9,
            hysteresis: 2,
            cooldown_windows: 2,
            temp_scale_c: 10.0,
        },
        ladder_freqs: vec![FreqMhz::new(1000), FreqMhz::new(1400)],
        warm_ga_iterations: Some(4),
        fit_error_escalation: f64::INFINITY,
        max_swaps: 1,
        ..ServeOptions::default()
    };
    let start = Instant::now();
    let workload = serve_workload(48);
    let generate_s = start.elapsed().as_secs_f64();
    Ok(FleetScenario {
        base,
        spread,
        drift,
        opts,
        serve,
        workload,
        generate_s,
    })
}

impl FleetScenario {
    fn controller(
        &self,
        seed: u64,
        devices: usize,
        epochs: usize,
        workers: usize,
    ) -> FleetController {
        FleetController::new(self.base.clone(), self.workload.clone())
            .with_devices(devices)
            .with_epochs(epochs)
            .with_epoch_iterations(EPOCH_ITERATIONS)
            .with_workers(workers)
            .with_spread(self.spread)
            .with_fleet_seed(seed)
            .with_drift(self.drift)
            .with_config(self.opts.clone())
            .with_serve_options(self.serve.clone())
            .with_transfer(true)
    }
}

/// Set-up: the scenario and the measured controller.
fn setup(seed: u64, workers: usize) -> Result<(FleetScenario, FleetController), String> {
    let sc = scenario()?;
    let controller = sc.controller(seed, DEVICES, EPOCHS, workers);
    Ok((sc, controller))
}

/// An untimed one-epoch run of a small fleet before set-up, so
/// first-touch costs land in neither set-up nor a pass.
fn warm_up(seed: u64, workers: usize) -> Result<(), String> {
    scenario()?
        .controller(seed, WARMUP_DEVICES, 1, workers)
        .run()
        .map(drop)
        .map_err(|e| format!("warm-up fleet: {e:?}"))
}

fn timed_run(c: &FleetController) -> Result<(Times, FleetOutcome), String> {
    let clock = Stopwatch::start();
    let out = c.run().map_err(|e| format!("fleet run: {e:?}"))?;
    Ok((clock.stop(), out))
}

/// Device-epochs that did not serve: quarantines and evictions.
fn unserved(f: &FleetOutcome) -> u64 {
    (f.quarantines + f.evictions) as u64
}

fn served_aicore_j(f: &FleetOutcome) -> f64 {
    let wus: f64 = f
        .per_device
        .iter()
        .flat_map(|d| d.iterations.iter())
        .map(|i| i.aicore_energy_wus)
        .sum();
    wus * 1e-6 / f.iterations().max(1) as f64
}

/// Cold reference `optimize` sessions of the fleet workload on the
/// silicon of fleet devices `first..first + REFERENCE_DEVICES` (no
/// drift), at the fleet's settings.
fn reference(sc: &FleetScenario, seed: u64, first: usize) -> Result<Round, String> {
    (first..first + REFERENCE_DEVICES)
        .map(|i| {
            let cfg = sc.spread.sample(&sc.base, seed, i);
            let clock = Stopwatch::start();
            let calib = HardwareCalibration::ground_truth(&cfg);
            let mut opt = EnergyOptimizer::new(Device::with_seed(cfg, seed ^ i as u64), calib);
            let report = opt
                .optimize(&sc.workload, &sc.opts)
                .map_err(|e| e.to_string())?;
            Ok((clock.stop(), report))
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let workers = nproc();
    let mut out = Outcome::default();
    if let Err(e) = warm_up(args.seed, workers) {
        out.check(false, || e);
        return out;
    }
    let (setup_s, built) = timed_setup(SETUP_BATCH, || setup(args.seed, workers));
    let (sc, first) = match built {
        Ok(b) => b,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    if args.trace {
        traced(args, &sc, first, &mut out);
        return out;
    }

    let start = Instant::now();
    let mut cpus = Vec::new();
    let mut walls = Vec::new();
    let mut epoch_rates = Vec::new();
    let mut iteration_rates = Vec::new();
    let mut digest = None;
    let mut joules = 0.0;
    let mut heap = None;
    let mut refs = Reference::new(REFERENCE_ROUNDS, |r| {
        reference(&sc, args.seed, r * REFERENCE_DEVICES)
    });
    let mut next = Some(first);
    loop {
        crate::speed::sample();
        let c = next
            .take()
            .unwrap_or_else(|| sc.controller(args.seed, DEVICES, EPOCHS, workers));
        out.attempted += (DEVICES * EPOCHS) as u64;
        match timed_run(&c) {
            Ok((times, f)) => {
                cpus.push(times.cpu);
                walls.push(times.wall);
                epoch_rates.push((DEVICES * EPOCHS) as f64 / times.cpu);
                iteration_rates.push(f.iterations() as f64 / times.cpu);
                out.failed += unserved(&f);
                joules = served_aicore_j(&f);
                heap.get_or_insert_with(crate::heap::peak_mb);
                out.check(*digest.get_or_insert(f.digest) == f.digest, || {
                    "a repeated pass returned a different fleet digest".into()
                });
            }
            Err(e) => {
                out.failed += (DEVICES * EPOCHS) as u64;
                out.check(false, || e);
            }
        }
        refs.time(&mut out);
        if start.elapsed().as_secs_f64() >= args.seconds || !out.check_failures.is_empty() {
            break;
        }
    }
    digest_check(&sc, args.seed, workers, &mut out);

    let (session_s, reports) = refs.finish(&mut out);

    out.push("setup_s", setup_s, "s", Source::Host);
    out.push("pass_cpu_s", median(&cpus), "s", Source::Host);
    out.push("session_cpu_p50_s", session_s, "s", Source::Host);
    out.push(
        "requests_per_cpu_s",
        median(&iteration_rates),
        "1/s",
        Source::Host,
    );
    out.push(
        "device_epochs_per_cpu_s",
        median(&epoch_rates),
        "1/s",
        Source::Host,
    );
    let target = sc.opts.ga.perf_loss_target;
    let rows: Vec<_> = reports.iter().map(|r| (r, target)).collect();
    push_sim(&mut out, &rows, Some(joules));
    out.push("peak_heap_mb", heap.unwrap_or(f64::NAN), "MB", Source::Host);
    out.notes.push(format!(
        "passes={} of {DEVICES} devices x {EPOCHS} epochs (CPU {cpus:.3?}; wall {walls:.3?}; \
         median {:.1} device-epochs per wall second); {} reference sessions in \
         {REFERENCE_ROUNDS} rounds",
        cpus.len(),
        (DEVICES * EPOCHS) as f64 / median(&walls),
        reports.len()
    ));
    out
}

/// The fleet digest must not depend on the worker count.
fn digest_check(sc: &FleetScenario, seed: u64, workers: usize, out: &mut Outcome) {
    let digests: Vec<Result<u64, String>> = [1, workers]
        .iter()
        .map(|&w| {
            sc.controller(seed, CHECK_DEVICES, CHECK_EPOCHS, w)
                .run()
                .map(|f| f.digest)
                .map_err(|e| format!("{e:?}"))
        })
        .collect();
    match (&digests[0], &digests[1]) {
        (Ok(a), Ok(b)) => out.check(a == b, || {
            format!("fleet digest {a:016x} at 1 worker != {b:016x} at {workers}")
        }),
        (Err(e), _) | (_, Err(e)) => out.check(false, || format!("digest run: {e}")),
    }
}

/// The traced run: each pass serves the fleet untraced (the overhead
/// reference), then again with an observer attached; the two digests
/// must agree. The fleet's observer sees fleet-level events only and
/// the devices are built inside `FleetController::run`, so the layers
/// below npu-core are not visible from outside the program: worker
/// time outside the re-optimization walls the fleet reports is
/// `npu-core.unattributed_s`.
fn traced(args: &Args, sc: &FleetScenario, first: FleetController, out: &mut Outcome) {
    let workers = nproc();
    let mut layers = Layers::default();
    let start = Instant::now();
    let mut passes = 0;
    let (mut traced_wall, mut plain_wall) = (0.0, 0.0);
    let (mut hits, mut lookups) = (0u64, 0u64);
    let mut next = Some(first);
    loop {
        let plain = next
            .take()
            .unwrap_or_else(|| sc.controller(args.seed, DEVICES, EPOCHS, workers));
        let counter = EventCounter::new();
        let traced_ctl = sc
            .controller(args.seed, DEVICES, EPOCHS, workers)
            .with_observer(ObserverHandle::from_arc(counter.clone()));
        out.attempted += (DEVICES * EPOCHS) as u64;
        match (timed_run(&plain), timed_run(&traced_ctl)) {
            (Ok((pt, p)), Ok((tt, f))) => {
                plain_wall += pt.wall;
                traced_wall += tt.wall;
                let tw = tt.wall;
                layers.add(
                    "npu-core.pool_busy_frac",
                    pt.cpu / (pt.wall * workers.min(DEVICES) as f64),
                );
                out.failed += unserved(&f);
                out.check(p.digest == f.digest, || {
                    "the traced fleet diverged from the untraced one".into()
                });
                let worker_s = tw * workers.min(DEVICES) as f64;
                layers.add("npu-obs.events", counter.events() as f64);
                layers.add("npu-core.fleet_reopt_s", f.reopt_wall_s);
                layers.add("npu-core.fleet_warm_reopt_s", f.warm_reopt_wall_s);
                layers.add("npu-core.unattributed_s", worker_s - f.reopt_wall_s);
                layers.add("npu-core.layer_coverage", f.reopt_wall_s / worker_s);
                layers.add("npu-core.fleet_swaps", f.swaps as f64);
                layers.add("npu-core.cold_sessions", (f.swaps - f.warm_swaps) as f64);
                layers.add("npu-core.served_iterations", f.iterations() as f64);
                layers.add("npu-core.transfer_hit_rate", f.transfer_hit_rate());
                let stats = traced_ctl.cache().stats();
                hits += stats.hits();
                lookups += stats.hits() + stats.misses();
                let flights = traced_ctl.cache().flight_stats();
                layers.add(
                    "npu-core.flight_led",
                    (flights.profile.led + flights.search.led) as f64,
                );
                layers.add(
                    "npu-core.flight_coalesced",
                    (flights.profile.coalesced + flights.search.coalesced) as f64,
                );
            }
            (Err(e), _) | (_, Err(e)) => {
                out.failed += (DEVICES * EPOCHS) as u64;
                out.check(false, || e);
            }
        }
        passes += 1;
        if start.elapsed().as_secs_f64() >= args.seconds || !out.check_failures.is_empty() {
            break;
        }
    }
    layers.per_pass(passes);
    layers.set(
        "npu-core.cache_hit_ratio",
        if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    layers.set(
        "npu-obs.trace_overhead_frac",
        traced_wall / plain_wall - 1.0,
    );
    layers.set("npu-workloads.generate_s", sc.generate_s);
    layers.emit(out);
    out.notes.push(format!(
        "traced passes={passes} (per-layer figures are per fleet run; layers below npu-core \
         run inside FleetController::run and are not separable from outside the program)"
    ));
}
