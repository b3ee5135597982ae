//! Integration: classification → preprocessing → GA search → execution on
//! profiled workloads (paper Sects. 6–7).

use dvfs_repro::prelude::*;
use npu_dvfs::{
    classify::{classify, Bottleneck},
    preprocess::preprocess,
    search, StageKind,
};
use npu_exec::{execute_strategy, ExecutorOptions};
use npu_sim::OpClass;

fn baseline_profile(workload: &Workload, cfg: &NpuConfig) -> (Device, Vec<npu_sim::OpRecord>) {
    // Profile at the device's own ladder ceiling (1800 MHz on the Ascend
    // profile, whatever the loaded description declares elsewhere) so the
    // same pipeline runs on every builtin profile.
    let top = cfg.freq_table.max();
    let mut dev = Device::new(cfg.clone());
    let tau = dev.config().thermal_tau_us;
    dev.warm_until_steady(workload.schedule(), top, 0.2, 12.0 * tau)
        .unwrap();
    let run = dev.run(workload.schedule(), &RunOptions::at(top)).unwrap();
    (dev, run.records)
}

#[test]
fn classification_matches_operator_nature() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::bert(&cfg);
    let (_, records) = baseline_profile(&workload, &cfg);
    let mut matmul_core = 0;
    let mut matmul_total = 0;
    let mut adam_uncore = 0;
    let mut adam_total = 0;
    for rec in &records {
        match (rec.name.as_str(), classify(rec)) {
            ("MatMul", b) => {
                matmul_total += 1;
                if matches!(b, Bottleneck::CoreBound(_)) {
                    matmul_core += 1;
                }
            }
            ("ApplyAdamW", b) => {
                adam_total += 1;
                if matches!(b, Bottleneck::UncoreBound(_)) {
                    adam_uncore += 1;
                }
            }
            _ => {}
        }
    }
    assert!(matmul_total > 0 && adam_total > 0);
    assert!(
        matmul_core as f64 / matmul_total as f64 > 0.8,
        "{matmul_core}/{matmul_total} MatMuls core-bound"
    );
    assert!(
        adam_uncore as f64 / adam_total as f64 > 0.8,
        "{adam_uncore}/{adam_total} Adam updates uncore-bound"
    );
    // Host-side ops classify as host.
    assert!(records
        .iter()
        .filter(|r| r.class != OpClass::Compute)
        .all(|r| matches!(classify(r), Bottleneck::Host(_))));
}

#[test]
fn preprocessing_respects_fai_and_partitions_ops() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::bert(&cfg);
    let (_, records) = baseline_profile(&workload, &cfg);
    let fine = preprocess(&records, 1_000.0);
    let coarse = preprocess(&records, 5_000.0);
    let very_coarse = preprocess(&records, 100_000.0);
    assert!(fine.len() >= coarse.len());
    assert!(coarse.len() >= very_coarse.len());
    // Stages partition the op index space.
    let mut next = 0;
    for s in coarse.stages() {
        assert_eq!(s.op_range.start, next);
        next = s.op_range.end;
    }
    assert_eq!(next, records.len());
    // All non-head/tail stages respect the FAI.
    for s in &coarse.stages()[..coarse.len().saturating_sub(1)] {
        assert!(
            s.dur_us >= 5_000.0 || coarse.len() == 1,
            "stage of {} µs below FAI",
            s.dur_us
        );
    }
    // Both kinds must be present for the GA to have anything to do.
    let kinds: Vec<StageKind> = coarse.stages().iter().map(|s| s.kind).collect();
    assert!(kinds.contains(&StageKind::Hfc));
    assert!(kinds.contains(&StageKind::Lfc));
}

#[test]
fn pipeline_stages_compose_on_every_builtin_profile() {
    // classify → preprocess → model build → GA search → execution, on
    // each checked-in device description. The point is structural: every
    // stage of the Sect. 6–7 pipeline must accept whatever ladder,
    // memory system and pipeline set the profile declares.
    for p in dvfs_repro::sim::profile::builtins() {
        let cfg = p.config().clone();
        let workload = models::tiny(&cfg);
        let (mut dev, records) = baseline_profile(&workload, &cfg);
        assert!(
            !records.is_empty(),
            "{}: profiling produced no records",
            p.name()
        );
        for rec in &records {
            // classify() must place every record somewhere; host-side ops
            // stay host-bound regardless of device physics.
            let b = classify(rec);
            if rec.class != OpClass::Compute {
                assert!(
                    matches!(b, Bottleneck::Host(_)),
                    "{}: host op misclassified",
                    p.name()
                );
            }
        }

        let pre = preprocess(&records, 100.0);
        let mut next = 0;
        for s in pre.stages() {
            assert_eq!(
                s.op_range.start,
                next,
                "{}: stages must partition ops",
                p.name()
            );
            next = s.op_range.end;
        }
        assert_eq!(
            next,
            records.len(),
            "{}: stages must cover all ops",
            p.name()
        );

        let (lo, hi) = (cfg.freq_table.min(), cfg.freq_table.max());
        let mut profiles = vec![FreqProfile {
            freq: hi,
            records: records.clone(),
        }];
        let run_lo = dev.run(workload.schedule(), &RunOptions::at(lo)).unwrap();
        profiles.push(FreqProfile {
            freq: lo,
            records: run_lo.records,
        });
        let perf = PerfModelStore::build(&profiles, FitFunction::Quadratic).unwrap();
        let calib = npu_power_model::HardwareCalibration::ground_truth(&cfg);
        let power = PowerModel::build(calib, cfg.voltage_curve, &profiles).unwrap();
        let table = StageTable::build(&pre, &perf, &power, &cfg.freq_table).unwrap();
        assert_eq!(
            table.n_freqs(),
            cfg.freq_table.len(),
            "{}: stage table must span the profile's whole ladder",
            p.name()
        );

        let ga = GaConfig::default().with_population(30).with_iterations(40);
        let outcome = search(&table, &ga);
        assert!(
            outcome.best_score.is_finite(),
            "{}: GA produced a non-finite score",
            p.name()
        );

        let exec = execute_strategy(
            &mut dev,
            workload.schedule(),
            &outcome.strategy,
            &records,
            &ExecutorOptions::default(),
        )
        .unwrap();
        assert!(
            exec.result.duration_us > 0.0,
            "{}: execution made no progress",
            p.name()
        );
    }
}

#[test]
fn ga_strategy_beats_prior_and_executes_faithfully() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::vit_base(&cfg);
    let (mut dev, records) = baseline_profile(&workload, &cfg);

    // Build models from profiles at the two build frequencies.
    let mut profiles = vec![FreqProfile {
        freq: FreqMhz::new(1800),
        records: records.clone(),
    }];
    let run_lo = dev
        .run(workload.schedule(), &RunOptions::at(FreqMhz::new(1000)))
        .unwrap();
    profiles.push(FreqProfile {
        freq: FreqMhz::new(1000),
        records: run_lo.records,
    });
    let perf = PerfModelStore::build(&profiles, FitFunction::Quadratic).unwrap();
    let calib = npu_power_model::HardwareCalibration::ground_truth(&cfg);
    let power = PowerModel::build(calib, cfg.voltage_curve, &profiles).unwrap();

    let pre = preprocess(&records, 5_000.0);
    let table = StageTable::build(&pre, &perf, &power, &cfg.freq_table).unwrap();
    let ga = GaConfig::default().with_population(60).with_iterations(150);
    let outcome = search(&table, &ga);

    // The search result must at least match the prior individual's score.
    let prior_genes: Vec<usize> = pre
        .stages()
        .iter()
        .map(|s| match s.kind {
            StageKind::Lfc => 6, // 1600 MHz
            StageKind::Hfc => 8, // 1800 MHz
        })
        .collect();
    let prior_score = npu_dvfs::score(
        &table.evaluate(&prior_genes),
        table.baseline().time_us,
        0.02,
    );
    assert!(
        outcome.best_score >= prior_score - 1e-12,
        "GA {} must not lose to the prior {}",
        outcome.best_score,
        prior_score
    );

    // Execute and verify the measured outcome tracks the prediction.
    let exec = execute_strategy(
        &mut dev,
        workload.schedule(),
        &outcome.strategy,
        &records,
        &ExecutorOptions::default(),
    )
    .unwrap();
    let measured_time = exec.result.duration_us;
    let predicted_time = outcome.best_eval.time_us;
    let gap = (measured_time - predicted_time).abs() / predicted_time;
    assert!(gap < 0.05, "prediction gap {gap:.4}");
    let measured_power = exec.result.avg_aicore_w();
    let predicted_power = outcome.best_eval.aicore_w();
    let pgap = (measured_power - predicted_power).abs() / predicted_power;
    assert!(pgap < 0.10, "power prediction gap {pgap:.4}");
}

/// A `n`-stage thermally coupled synthetic table over the nine-point
/// 1000–1800 MHz ladder: stage sensitivity, duration and dynamic power
/// vary with the stage index so no two rows are alike.
fn coupled_table(n: usize) -> npu_dvfs::StageTable {
    use npu_dvfs::{Stage, StageTable, ThermalCoupling};

    let freqs: Vec<FreqMhz> = (10..=18).map(|k| FreqMhz::new(k * 100)).collect();
    let (mut time, mut ea, mut es) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..n {
        let sens = (i * 37 % 101) as f64 / 100.0;
        let dur = 1_000.0 + (i * 7_919 % 19_000) as f64;
        let c = 5.0 + (i * 13 % 35) as f64;
        let (mut t, mut a, mut s) = (Vec::new(), Vec::new(), Vec::new());
        for f in &freqs {
            let x = f.as_f64() / 1800.0;
            let dt = dur * (1.0 - sens + sens / x);
            let p = 12.0 + c * x * x;
            t.push(dt);
            a.push(p * dt);
            s.push((p + 180.0) * dt);
        }
        time.push(t);
        ea.push(a);
        es.push(s);
    }
    let stages = (0..n)
        .map(|i| Stage {
            start_us: 0.0,
            dur_us: time[i][8],
            op_range: i..i + 1,
            kind: StageKind::Lfc,
        })
        .collect();
    let volts = (0..9).map(|k| 0.7 + 0.05 * f64::from(k)).collect();
    StageTable::from_parts(freqs, stages, time, ea, es)
        .unwrap()
        .with_thermal_coupling(
            ThermalCoupling {
                gamma_aicore: 0.05,
                gamma_soc: 0.1,
                k_c_per_w: 0.08,
            },
            volts,
        )
}

/// FNV-1a over a stream of 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, x| {
        (h ^ x).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Seed-drift pin for the oracle-seeded GA path: the Lagrangian ladder on
/// a 300-stage thermally coupled table (above the GA's 256-stage
/// seeding threshold, not a power of two, enough slopes to hit the
/// 192-rung subsample) must keep returning the seeds the original
/// rescan-per-upgrade repair loop produced. The digest is FNV-1a over
/// each seed's genes, evaluation bits and score bits, in order.
#[test]
fn lagrangian_seeds_on_a_large_table_match_the_recorded_digest() {
    let table = coupled_table(300);
    let seeds = npu_dvfs::exact::lagrangian_seeds(&table, 0.02, 8);
    let digest = fnv1a(seeds.iter().flat_map(|s| {
        let e = &s.eval;
        let bits = [e.time_us, e.aicore_energy_wus, e.soc_energy_wus, s.score].map(f64::to_bits);
        s.genes.iter().map(|&g| g as u64).chain(bits)
    }));
    assert_eq!(seeds.len(), 8);
    assert_eq!(digest, 0x8ffe_a01d_8392_dd88);
}

/// Trajectory pin for the whole search: the oracle-seeded GA plus the
/// memetic refinement on the same 300-stage coupled table must keep
/// returning the strategy, evaluation, per-generation score trace and
/// evaluation count the tree-walk-per-gene scorer produced. The digest
/// is FNV-1a over the strategy's frequencies, the `best_eval` bits, the
/// `score_trace` bits and `evaluations`.
///
/// `unique_evaluations` is deliberately left out: it counts score-memo
/// misses, and the memo's size (its eviction window) is a tuning
/// choice that changes the count without changing any score.
#[test]
fn ga_search_on_a_large_table_matches_the_recorded_trajectory() {
    let table = coupled_table(300);
    let cfg = GaConfig {
        seed: 13,
        ..GaConfig::default().with_population(40).with_iterations(30)
    };
    let out = search(&table, &cfg);
    let e = &out.best_eval;
    let freqs = out.strategy.freqs().iter().map(|f| u64::from(f.mhz()));
    let eval_bits = [e.time_us, e.aicore_energy_wus, e.soc_energy_wus].map(f64::to_bits);
    let trace = out.score_trace.iter().map(|s| s.to_bits());
    let digest = fnv1a(
        freqs
            .chain(eval_bits)
            .chain(trace)
            .chain([out.evaluations as u64]),
    );
    assert_eq!(out.score_trace.len(), 30);
    assert_eq!(digest, 0x2bdd_7443_9808_48cb, "digest {digest:#018x}");
}
