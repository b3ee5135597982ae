//! One optimization session, decomposed into calls to each crate's
//! public functions so every layer gets its own span.
//!
//! The call sequence is the one `npu_core::OptimizationSession` makes
//! for a cold session without a cache (profile → fit → power model →
//! preprocess → stage table → oracle seeding → GA → execute). The
//! Lagrangian ladder runs as its own call; its rungs then enter the GA
//! as warm seeds with the automatic oracle rule switched off, which
//! puts the same individuals in the same slots of the first
//! generation. Callers compare the result with the real session's bit
//! for bit, so a drift between the two is a failed check, not a wrong
//! measurement.

use crate::layers::{Layers, MIN_COVERAGE};
use crate::Outcome;
use npu_core::{sweep_profiles, OptimizerConfig};
use npu_dvfs::preprocess::preprocess;
use npu_dvfs::{exact, search_observed, Evaluation, GaOutcome, StageTable};
use npu_exec::{execute_strategy, ExecutionOutcome, ExecutorOptions};
use npu_obs::ObserverHandle;
use npu_perf_model::PerfModelStore;
use npu_power_model::{HardwareCalibration, PowerModel};
use npu_sim::{Device, FreqMhz, NpuConfig};
use npu_workloads::Workload;
use std::time::Instant;

/// What a replayed session produced.
pub struct Traced {
    pub outcome: GaOutcome,
    pub execution: Option<ExecutionOutcome>,
    /// Stages of the searched table.
    pub stages: usize,
    /// Host wall of the whole session, device construction included.
    pub wall_s: f64,
}

/// Runs one traced session for `workload` on a fresh device seeded
/// with `device_seed`, charging each call to its layer in `layers`.
/// `execute` adds the npu-exec stage (full `optimize`); without it the
/// session stops after the search, as a service request does. Profiling
/// is single-pass (`profile_passes` = 1, as in every workload here).
#[allow(clippy::too_many_arguments)]
pub fn traced_session(
    cfg: &NpuConfig,
    device_seed: u64,
    calib: HardwareCalibration,
    workload: &Workload,
    opts: &OptimizerConfig,
    execute: bool,
    obs: &ObserverHandle,
    layers: &mut Layers,
) -> Result<Traced, String> {
    let start = Instant::now();
    let mut dev = Device::with_seed(cfg.clone(), device_seed);
    dev.set_observer(obs.clone());

    let fmax = cfg.freq_table.max();
    let mut build_freqs = opts.build_freqs.clone();
    if !build_freqs.contains(&fmax) {
        build_freqs.push(fmax);
    }
    build_freqs.sort();
    build_freqs.reverse();
    let profiles = layers
        .span("npu-sim.profile_s", || {
            sweep_profiles(
                &dev,
                workload.schedule(),
                &build_freqs,
                1,
                opts.threads,
                obs,
            )
        })
        .map_err(|e| format!("profile: {e:?}"))?;
    let profiles: Vec<_> = profiles.into_iter().flatten().collect();
    layers.add(
        "npu-sim.profiled_ops",
        profiles.iter().map(|p| p.records.len()).sum::<usize>() as f64,
    );

    let perf = layers
        .span("npu-perf-model.fit_s", || {
            PerfModelStore::build_observed(&profiles, opts.fit, obs)
        })
        .map_err(|e| format!("fit: {e:?}"))?;
    let power = layers
        .span("npu-power-model.build_s", || {
            PowerModel::build(calib, cfg.voltage_curve, &profiles)
        })
        .map_err(|e| format!("power model: {e:?}"))?;

    let fai = opts.fai_us.max(cfg.setfreq_latency_us);
    let baseline_records = &profiles[0].records;
    let pre = layers.span("npu-dvfs.preprocess_s", || {
        preprocess(baseline_records, fai)
    });
    let table = layers
        .span("npu-dvfs.table_build_s", || {
            StageTable::build(&pre, &perf, &power, &cfg.freq_table)
        })
        .map_err(|e| format!("stage table: {e:?}"))?;
    let n = table.n_stages();
    layers.add("npu-dvfs.stages", n as f64);

    let oracle = opts.ga.effective_oracle_seeds(n);
    let seeds = layers.span("npu-dvfs.lagrangian_s", || {
        if oracle > 0 {
            exact::lagrangian_seeds(&table, opts.ga.perf_loss_target, oracle)
        } else {
            Vec::new()
        }
    });
    let mut ga = opts
        .ga
        .clone()
        .with_oracle_seeds(0)
        .with_oracle_auto_stages(usize::MAX);
    let mut warm: Vec<Vec<FreqMhz>> = seeds
        .iter()
        .map(|s| s.genes.iter().map(|&g| table.freqs()[g]).collect())
        .collect();
    warm.extend(opts.ga.warm_seeds.iter().cloned());
    ga.warm_seeds = warm;
    let outcome = layers.span("npu-dvfs.ga_s", || search_observed(&table, &ga, obs));
    layers.add("npu-dvfs.evaluations", outcome.evaluations as f64);

    let execution = if execute {
        let exec = layers
            .span("npu-exec.execute_s", || {
                execute_strategy(
                    &mut dev,
                    workload.schedule(),
                    &outcome.strategy,
                    baseline_records,
                    &ExecutorOptions {
                        planned_latency_us: opts.planned_latency_us,
                        ..ExecutorOptions::default()
                    },
                )
            })
            .map_err(|e| format!("execute: {e:?}"))?;
        layers.add("npu-exec.setfreq_count", exec.setfreq_count as f64);
        Some(exec)
    } else {
        None
    };
    Ok(Traced {
        outcome,
        execution,
        stages: n,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// Stages of the table a cold session of `workload` searches on a
/// fresh device seeded with `device_seed`: its fmax profile,
/// preprocessed at the session's FAI. Every session profiles fmax first
/// and a sweep point depends only on its index, so this is the table
/// size the session itself builds.
pub fn stage_count(
    cfg: &NpuConfig,
    device_seed: u64,
    workload: &Workload,
    opts: &OptimizerConfig,
) -> Result<usize, String> {
    let dev = Device::with_seed(cfg.clone(), device_seed);
    let fmax = cfg.freq_table.max();
    let profiles = sweep_profiles(
        &dev,
        workload.schedule(),
        &[fmax],
        1,
        1,
        &ObserverHandle::null(),
    )
    .map_err(|e| format!("profile: {e:?}"))?;
    let baseline = profiles
        .into_iter()
        .flatten()
        .next()
        .ok_or("the fmax sweep returned no profile")?;
    let fai = opts.fai_us.max(cfg.setfreq_latency_us);
    Ok(preprocess(&baseline.records, fai).len())
}

/// The layer spans a replayed session charges (their sum is the
/// attributed part of the session wall).
const SESSION_SPANS: &[&str] = &[
    "npu-sim.profile_s",
    "npu-perf-model.fit_s",
    "npu-power-model.build_s",
    "npu-dvfs.preprocess_s",
    "npu-dvfs.table_build_s",
    "npu-dvfs.lagrangian_s",
    "npu-dvfs.ga_s",
    "npu-exec.execute_s",
];

/// Sum of [`SESSION_SPANS`] in `layers`.
fn attributed_s(layers: &Layers) -> f64 {
    SESSION_SPANS.iter().map(|n| layers.get(n)).sum()
}

/// Closes a traced run of replayed sessions: applies the coverage gate
/// (the layer spans must cover [`MIN_COVERAGE`] of session wall) and
/// turns the totals into per-pass figures with the derived ratios.
/// `traced_wall` and `plain_wall` are the summed walls of the replayed
/// sessions and of the same sessions run untraced.
pub fn finish_traced(
    layers: &mut Layers,
    traced_wall: f64,
    plain_wall: f64,
    unique_evaluations: f64,
    passes: usize,
    out: &mut Outcome,
) {
    let attributed = attributed_s(layers);
    let coverage = attributed / traced_wall;
    out.check(coverage >= MIN_COVERAGE, || {
        format!("layer spans cover {coverage:.4} of session wall (< {MIN_COVERAGE})")
    });
    layers.add("npu-core.unattributed_s", traced_wall - attributed);
    layers.per_pass(passes);
    let search = layers.get("npu-dvfs.lagrangian_s") + layers.get("npu-dvfs.ga_s");
    layers.set("npu-dvfs.search_s", search);
    layers.derive_dvfs(unique_evaluations / passes.max(1) as f64);
    layers.set("npu-core.layer_coverage", coverage);
    layers.set(
        "npu-obs.trace_overhead_frac",
        traced_wall / plain_wall - 1.0,
    );
}

/// Bitwise equality of two evaluations.
pub fn same_eval(a: &Evaluation, b: &Evaluation) -> bool {
    a.time_us.to_bits() == b.time_us.to_bits()
        && a.aicore_energy_wus.to_bits() == b.aicore_energy_wus.to_bits()
        && a.soc_energy_wus.to_bits() == b.soc_energy_wus.to_bits()
}

/// Re-scores `outcome.strategy` through [`StageTable::evaluate`] and
/// compares it with the reported `best_eval` bit for bit.
pub fn rescore_matches(table: &StageTable, outcome: &GaOutcome) -> Result<(), String> {
    let freqs = outcome.strategy.freqs();
    if freqs.len() != table.n_stages() {
        return Err(format!(
            "strategy has {} genes for {} stages",
            freqs.len(),
            table.n_stages()
        ));
    }
    let mut genes = Vec::with_capacity(freqs.len());
    for f in freqs {
        match table.freqs().iter().position(|g| g == f) {
            Some(g) => genes.push(g),
            None => return Err(format!("frequency {} MHz is off the table", f.mhz())),
        }
    }
    let again = table.evaluate(&genes);
    if same_eval(&again, &outcome.best_eval) {
        Ok(())
    } else {
        Err(format!(
            "re-scored {again:?} != reported {:?}",
            outcome.best_eval
        ))
    }
}
