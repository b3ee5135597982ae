//! `catalog-service`: a seeded `generate_load` stream through
//! `OptService` at `workers = nproc`. Workload popularity is Zipf over
//! the small-table catalogue; arrivals are open-loop on the service's
//! virtual timeline and the distinct sessions then run as one batch on
//! the real worker pool. A pass is one `OptService::run` over the whole
//! stream on a fresh service (cold cache). The traffic is the
//! `dup_heavy` level of the service bench (`crates/bench/benches/
//! service.rs`) on this catalogue, with fewer requests, and with the
//! request budget and queue raised so that no request is shed or
//! refused (see [`BUDGET_US`]).

use crate::layers::{EventCounter, Layers};
use crate::pipeline::{finish_traced, same_eval, stage_count, traced_session};
use crate::{
    median, nproc, push_sim, timed_setup, Args, Outcome, Reference, Round, Source, Stopwatch,
};
use npu_core::service::{
    generate_load, Disposition, LoadSpec, OptRequest, OptService, Provenance, ServiceOutcome,
};
use npu_core::{EnergyOptimizer, OptimizerConfig};
use npu_dvfs::{DvfsStrategy, GaOutcome};
use npu_obs::ObserverHandle;
use npu_power_model::HardwareCalibration;
use npu_sim::{Device, NpuConfig};
use npu_workloads::{models, Workload};
use std::collections::HashMap;
use std::time::Instant;

/// Requests per stream.
const REQUESTS: usize = 2000;
/// Virtual-time budget per request, µs. The catalogue's cold sessions
/// cost far more virtual time than the service bench's small tables
/// (20 ms + 40 µs per operator: Llama2 decode is 12,320 operators), so
/// the whole stream queues behind the 16 virtual servers and the
/// slowest completion lands 1.1–1.6 s after its arrival (seeds 1–15).
/// Twice that keeps every request unshed; the queue holds the stream.
const BUDGET_US: f64 = 3_000_000.0;
/// Stream prefix re-run at 1 and at `nproc` workers for the digest check.
const DIGEST_PREFIX: usize = 80;
/// Rounds of reference sessions for the simulated metrics: one session
/// per catalogue table each, round `r` on device seed `seed + r`.
const REFERENCE_ROUNDS: usize = 4;

struct Setup {
    calib: HardwareCalibration,
    catalog: Vec<Workload>,
    load: Vec<OptRequest>,
    opts: OptimizerConfig,
    calibrate_s: f64,
    generate_s: f64,
}

fn catalog(cfg: &NpuConfig) -> Vec<Workload> {
    vec![
        models::bert(cfg),
        models::resnet50(cfg),
        models::resnet152(cfg),
        models::vit_base(cfg),
        models::deit_small(cfg),
        models::shufflenet_v2plus(cfg),
        models::llama2_inference(cfg, 32),
        models::tiny(cfg),
    ]
}

fn setup(cfg: &NpuConfig, seed: u64, workers: usize) -> Result<(Setup, OptService), String> {
    let start = Instant::now();
    let calib = *EnergyOptimizer::calibrated(cfg.clone())
        .map_err(|e| format!("calibration: {e}"))?
        .calibration();
    let calibrate_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let catalog = catalog(cfg);
    let load = generate_load(
        &catalog,
        &LoadSpec {
            requests: REQUESTS,
            seed,
            mean_interarrival_us: 120.0,
            duplicate_fraction: 0.8,
            zipf_s: 1.1,
            unique_pool: 12,
            budget_us: BUDGET_US,
            priority_levels: 3,
        },
    );
    let generate_s = start.elapsed().as_secs_f64();
    // One worker thread per session: the pool supplies the parallelism.
    let opts = OptimizerConfig::default().with_threads(1);
    let s = Setup {
        calib,
        catalog,
        load,
        opts,
        calibrate_s,
        generate_s,
    };
    let service = service(cfg, &s, workers)?;
    Ok((s, service))
}

fn service(cfg: &NpuConfig, s: &Setup, workers: usize) -> Result<OptService, String> {
    OptService::builder(cfg.clone())
        .with_calibration(s.calib)
        .with_config(s.opts.clone())
        .with_workers(workers)
        .with_queue_capacity(REQUESTS)
        .with_virtual_servers(16)
        .try_build()
        .map_err(|e| format!("service config: {e}"))
}

/// The stage count of every request identity in the stream, from a
/// cold fmax profile of its workload on its device (see
/// [`stage_count`]). Worked out once, outside every timed section.
fn expected_stages(cfg: &NpuConfig, s: &Setup) -> Result<HashMap<u64, usize>, String> {
    let mut expected = HashMap::new();
    for req in &s.load {
        if let std::collections::hash_map::Entry::Vacant(slot) = expected.entry(req.identity()) {
            slot.insert(stage_count(cfg, req.device_seed, &req.workload, &s.opts)?);
        }
    }
    Ok(expected)
}

/// Checks one pass's responses: every request completed; every strategy
/// has one frequency per stage of its workload's table on its device,
/// its stages cover the workload's operators in order, its frequencies
/// are on the device ladder; and every response to one identity carries
/// the same strategy.
fn check_responses(
    cfg: &NpuConfig,
    load: &[OptRequest],
    expected: &HashMap<u64, usize>,
    run: &ServiceOutcome,
    out: &mut Outcome,
) {
    let mut first: HashMap<u64, &DvfsStrategy> = HashMap::new();
    for (req, d) in load.iter().zip(&run.dispositions) {
        let Disposition::Completed(r) = d else {
            out.failed += 1;
            continue;
        };
        let s = &r.strategy;
        let ops = req.workload.op_count();
        let mut next = 0;
        let covered = s.stages().iter().all(|st| {
            let ok = st.op_range.start == next;
            next = st.op_range.end;
            ok
        }) && next == ops;
        let ladder = s
            .freqs()
            .iter()
            .all(|f| cfg.freq_table.iter().any(|g| g == *f));
        let stages = expected.get(&req.identity()).copied();
        out.check(stages == Some(s.freqs().len()) && covered && ladder, || {
            format!(
                "request {}: strategy of {} genes does not fit {} ({stages:?} stages, {} ops)",
                r.request,
                s.freqs().len(),
                req.workload.name(),
                ops
            )
        });
        let same = *first.entry(req.identity()).or_insert(s) == s;
        out.check(same, || {
            format!(
                "request {}: differs from its identity's first response",
                r.request
            )
        });
    }
    out.check(run.dispositions.len() == load.len(), || {
        "dispositions do not match the stream".into()
    });
}

/// One reference session per catalogue table: a cold full `optimize`
/// on a device seeded with `seed`.
fn reference(cfg: &NpuConfig, seed: u64, s: &Setup) -> Result<Round, String> {
    s.catalog
        .iter()
        .map(|w| {
            let clock = Stopwatch::start();
            let mut opt = EnergyOptimizer::new(Device::with_seed(cfg.clone(), seed), s.calib);
            let report = opt.optimize(w, &s.opts).map_err(|e| e.to_string())?;
            Ok((clock.stop(), report))
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let cfg = NpuConfig::ascend_like();
    let workers = nproc();
    let mut out = Outcome::default();
    let (setup_s, built) = timed_setup(1, || setup(&cfg, args.seed, workers));
    let (s, first_service) = match built {
        Ok(b) => b,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    let expected = match expected_stages(&cfg, &s) {
        Ok(e) => e,
        Err(e) => {
            out.check(false, || format!("stage count: {e}"));
            return out;
        }
    };
    if args.trace {
        traced(args, &cfg, &s, &expected, first_service, &mut out);
        return out;
    }

    let start = Instant::now();
    let mut cpus = Vec::new();
    let mut walls = Vec::new();
    let mut request_rates = Vec::new();
    let mut session_rates = Vec::new();
    let mut digest = None;
    let mut heap = None;
    let mut served = None;
    let mut refs = Reference::new(REFERENCE_ROUNDS, |r| {
        reference(&cfg, args.seed.wrapping_add(r as u64), &s)
    });
    let mut next_service = Some(first_service);
    loop {
        crate::speed::sample();
        let service = match next_service
            .take()
            .map_or_else(|| service(&cfg, &s, workers), Ok)
        {
            Ok(sv) => sv,
            Err(e) => {
                out.check(false, || e);
                break;
            }
        };
        out.attempted += REQUESTS as u64;
        let clock = Stopwatch::start();
        let run = service.run(&s.load);
        let times = clock.stop();
        match run {
            Ok(run) => {
                cpus.push(times.cpu);
                walls.push(times.wall);
                request_rates.push(run.metrics.completed as f64 / times.cpu);
                session_rates.push(run.metrics.sessions as f64 / times.cpu);
                heap.get_or_insert_with(crate::heap::peak_mb);
                let m = &run.metrics;
                served.get_or_insert((m.completed, m.warm, m.coalesced, m.sessions));
                check_responses(&cfg, &s.load, &expected, &run, &mut out);
                let d = run.digest();
                out.check(*digest.get_or_insert(d) == d, || {
                    "a repeated pass returned a different digest".into()
                });
            }
            Err(e) => {
                out.failed += REQUESTS as u64;
                out.check(false, || format!("service run: {e}"));
            }
        }
        refs.time(&mut out);
        if start.elapsed().as_secs_f64() >= args.seconds || !out.check_failures.is_empty() {
            break;
        }
    }
    digest_check(&cfg, &s, workers, &mut out);

    let (session_s, reports) = refs.finish(&mut out);

    out.push("setup_s", setup_s, "s", Source::Host);
    out.push("pass_cpu_s", median(&cpus), "s", Source::Host);
    out.push("session_cpu_p50_s", session_s, "s", Source::Host);
    out.push(
        "requests_per_cpu_s",
        median(&request_rates),
        "1/s",
        Source::Host,
    );
    out.push(
        "device_epochs_per_cpu_s",
        median(&session_rates),
        "1/s",
        Source::Host,
    );
    let target = s.opts.ga.perf_loss_target;
    let rows: Vec<_> = reports.iter().map(|r| (r, target)).collect();
    push_sim(&mut out, &rows, None);
    out.push("peak_heap_mb", heap.unwrap_or(f64::NAN), "MB", Source::Host);
    if let Some((completed, warm, coalesced, sessions)) = served {
        out.notes.push(format!(
            "per pass: {completed} completed = {warm} warm + {coalesced} coalesced + \
             {sessions} computed ({:.1} % served without a session of their own)",
            100.0 * (warm + coalesced) as f64 / completed.max(1) as f64
        ));
    }
    out.notes.push(format!(
        "passes={} of {REQUESTS} requests (CPU {cpus:.3?}; wall {walls:.3?}; median {:.0} \
         requests per wall second); {} reference sessions in {REFERENCE_ROUNDS} rounds",
        cpus.len(),
        served.map_or(0, |(completed, ..)| completed) as f64 / median(&walls),
        reports.len()
    ));
    out
}

/// The response digest must not depend on the worker count.
fn digest_check(cfg: &NpuConfig, s: &Setup, workers: usize, out: &mut Outcome) {
    let prefix = &s.load[..DIGEST_PREFIX.min(s.load.len())];
    let digests: Vec<Result<u64, String>> = [1, workers]
        .iter()
        .map(|&w| {
            let sv = service(cfg, s, w)?;
            sv.run(prefix)
                .map(|r| r.digest())
                .map_err(|e| e.to_string())
        })
        .collect();
    match (&digests[0], &digests[1]) {
        (Ok(a), Ok(b)) => out.check(a == b, || {
            format!("digest {a:016x} at 1 worker != {b:016x} at {workers}")
        }),
        (Err(e), _) | (_, Err(e)) => out.check(false, || format!("digest run: {e}")),
    }
}

/// The traced run: one service pass for the npu-core counters, then
/// every session the pass computed is re-run untraced through the
/// public API (the overhead reference) and replayed with spans; both
/// must reproduce the service's response bit for bit.
fn traced(
    args: &Args,
    cfg: &NpuConfig,
    s: &Setup,
    expected: &HashMap<u64, usize>,
    first: OptService,
    out: &mut Outcome,
) {
    let workers = nproc();
    let mut layers = Layers::default();
    let start = Instant::now();
    let mut passes = 0;
    let (mut traced_wall, mut plain_wall, mut unique) = (0.0, 0.0, 0.0);
    let (mut hits, mut lookups) = (0u64, 0u64);
    let mut next_service = Some(first);
    loop {
        let service = match next_service
            .take()
            .map_or_else(|| service(cfg, s, workers), Ok)
        {
            Ok(sv) => sv,
            Err(e) => {
                out.check(false, || e);
                break;
            }
        };
        let clock = Stopwatch::start();
        let run = match service.run(&s.load) {
            Ok(run) => run,
            Err(e) => {
                out.check(false, || format!("service run: {e}"));
                break;
            }
        };
        let times = clock.stop();
        layers.add("npu-core.service_pool_s", run.metrics.wall_s);
        layers.add("npu-core.admission_s", times.wall - run.metrics.wall_s);
        layers.add(
            "npu-core.pool_busy_frac",
            times.cpu / (times.wall * workers as f64),
        );
        layers.add("npu-core.cold_sessions", run.metrics.sessions as f64);
        // Requests served without a session of their own: the service
        // answers warm and coalesced requests before they reach the
        // artifact cache, so this is the npu-core hit ratio that counts.
        hits += run.metrics.warm + run.metrics.coalesced;
        lookups += run.metrics.completed;
        let flights = service.cache().flight_stats();
        layers.add(
            "npu-core.flight_led",
            (flights.profile.led + flights.search.led) as f64,
        );
        layers.add(
            "npu-core.flight_coalesced",
            (flights.profile.coalesced + flights.search.coalesced) as f64,
        );
        check_responses(cfg, &s.load, expected, &run, out);

        for (req, d) in s.load.iter().zip(&run.dispositions) {
            let Disposition::Completed(resp) = d else {
                continue;
            };
            if resp.provenance != Provenance::Computed {
                continue;
            }
            out.attempted += 1;
            let plain = plain_search(cfg, s, &req.workload, req.device_seed);
            let counter = EventCounter::new();
            let obs = ObserverHandle::from_arc(counter.clone());
            let t = traced_session(
                cfg,
                req.device_seed,
                s.calib,
                &req.workload,
                &s.opts,
                false,
                &obs,
                &mut layers,
            );
            match (plain, t) {
                (Ok((wall, outcome)), Ok(t)) => {
                    plain_wall += wall;
                    traced_wall += t.wall_s;
                    layers.add("npu-obs.events", counter.events() as f64);
                    unique += t.outcome.unique_evaluations as f64;
                    out.check(
                        t.outcome == outcome
                            && t.outcome.strategy == resp.strategy
                            && same_eval(&t.outcome.best_eval, &resp.predicted)
                            && t.stages == resp.strategy.freqs().len(),
                        || {
                            format!(
                                "request {}: replayed session differs from the service response",
                                resp.request
                            )
                        },
                    );
                }
                (Err(e), _) | (_, Err(e)) => {
                    out.failed += 1;
                    out.check(false, || e);
                }
            }
        }
        passes += 1;
        if start.elapsed().as_secs_f64() >= args.seconds || !out.check_failures.is_empty() {
            break;
        }
    }
    finish_traced(&mut layers, traced_wall, plain_wall, unique, passes, out);
    layers.set(
        "npu-core.cache_hit_ratio",
        if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    layers.set("npu-power-model.calibrate_s", s.calibrate_s);
    layers.set("npu-workloads.generate_s", s.generate_s);
    layers.emit(out);
    out.notes.push(format!(
        "traced passes={passes}, replayed sessions={} (per-layer figures are per stream)",
        out.attempted
    ));
}

/// One untraced session through the search stage, no cache: what the
/// service runs for a request it has to compute.
fn plain_search(
    cfg: &NpuConfig,
    s: &Setup,
    workload: &Workload,
    device_seed: u64,
) -> Result<(f64, GaOutcome), String> {
    let start = Instant::now();
    let mut opt = EnergyOptimizer::new(Device::with_seed(cfg.clone(), device_seed), s.calib);
    let mut session = opt.session(workload, &s.opts);
    session.search().map_err(|e| e.to_string())?;
    let outcome = session
        .into_ga_outcome()
        .ok_or("search stage kept no outcome")?;
    Ok((start.elapsed().as_secs_f64(), outcome))
}
