//! Property-based tests for preprocessing and the GA: stage partitioning,
//! FAI merging, duration conservation, and search-quality invariants on
//! random stage tables.

use proptest::prelude::*;

use npu_dvfs::{
    exact, preprocess::preprocess, score, search, EvalEngine, Evaluation, GaConfig, GenomePool,
    IncrementalEval, Stage, StageKind, StageTable, ThermalCoupling,
};
use npu_sim::{FreqMhz, OpClass, OpRecord, PipelineRatios, Scenario};

fn rec(index: usize, start: f64, dur: f64, sensitive: bool) -> OpRecord {
    let ratios = if sensitive {
        PipelineRatios {
            cube: 0.95,
            mte2: 0.3,
            ..PipelineRatios::default()
        }
    } else {
        PipelineRatios {
            mte2: 0.95,
            vector: 0.2,
            ..PipelineRatios::default()
        }
    };
    OpRecord {
        index,
        name: "X".into(),
        class: OpClass::Compute,
        scenario: Scenario::PingPongIndependent,
        start_us: start,
        dur_us: dur,
        freq_mhz: FreqMhz::new(1800),
        ratios,
        aicore_w: 30.0,
        soc_w: 200.0,
        temp_c: 60.0,
        traffic_bytes: 0.0,
    }
}

fn stream(spec: &[(f64, bool)]) -> Vec<OpRecord> {
    let mut t = 0.0;
    spec.iter()
        .enumerate()
        .map(|(i, &(dur, s))| {
            let r = rec(i, t, dur, s);
            t += dur;
            r
        })
        .collect()
}

prop_compose! {
    fn arb_profile()(spec in prop::collection::vec((10.0f64..5_000.0, any::<bool>()), 1..80))
        -> Vec<OpRecord> {
        stream(&spec)
    }
}

fn arb_table() -> impl Strategy<Value = StageTable> {
    arb_table_sized(2..24)
}

fn arb_table_sized(stages: std::ops::Range<usize>) -> impl Strategy<Value = StageTable> {
    let freqs: Vec<FreqMhz> = (10..=18).map(|k| FreqMhz::new(k * 100)).collect();
    prop::collection::vec(arb_row(), stages).prop_map(move |rows| table_from_rows(&rows, &freqs))
}

/// One stage: duration, memory-bound flag, active-power coefficient.
fn arb_row() -> impl Strategy<Value = (f64, bool, f64)> {
    (1_000.0f64..50_000.0, any::<bool>(), 5.0f64..40.0)
}

/// Tables of awkward shapes for the scoring paths: one stage or a
/// non-power-of-two count, over a 9-point ladder (4-bit gene packing) or
/// a 17–40-point one (8-bit packing). Three in four are thermally
/// coupled, with a contraction factor `k_c · γ_soc · V` up to ~0.5 and
/// an unordered voltage per frequency point, so the fix point runs one
/// to eight iterations and the candidates of one row converge at
/// different iterations, in no particular order.
fn arb_shaped_table() -> impl Strategy<Value = StageTable> {
    shaped_table(prop_oneof![Just(1usize), 2usize..40], 40)
}

/// [`arb_shaped_table`] with `stages` (at most `max_stages`) drawn from
/// the given strategy.
fn shaped_table(
    stages: impl Strategy<Value = usize>,
    max_stages: usize,
) -> impl Strategy<Value = StageTable> {
    let coupling = (
        0.01f64..0.3,
        0.05f64..1.5,
        0.0f64..0.5,
        prop::collection::vec(0.5f64..1.2, 40),
    );
    (
        stages,
        prop_oneof![Just(9usize), 17usize..41],
        prop::collection::vec(arb_row(), max_stages),
        0u32..4,
        coupling,
    )
        .prop_map(|(n, m, rows, uncoupled, coupling)| {
            let freqs: Vec<FreqMhz> = (0..m)
                .map(|k| FreqMhz::new(1000 + (800 * k / (m - 1)) as u32))
                .collect();
            let table = table_from_rows(&rows[..n], &freqs);
            if uncoupled == 0 {
                return table;
            }
            let (k_c_per_w, gamma_soc, gamma_aicore, mut volts) = coupling;
            volts.truncate(m);
            let coupling = ThermalCoupling {
                gamma_aicore,
                gamma_soc,
                k_c_per_w,
            };
            table.with_thermal_coupling(coupling, volts)
        })
}

fn table_from_rows(rows: &[(f64, bool, f64)], freqs: &[FreqMhz]) -> StageTable {
    let mut stages = Vec::new();
    let mut time = Vec::new();
    let mut ea = Vec::new();
    let mut es = Vec::new();
    let mut t0 = 0.0;
    for (i, &(dur, mem, p_active)) in rows.iter().enumerate() {
        stages.push(Stage {
            start_us: t0,
            dur_us: dur,
            op_range: i..i + 1,
            kind: if mem { StageKind::Lfc } else { StageKind::Hfc },
        });
        t0 += dur;
        let mut trow = Vec::new();
        let mut arow = Vec::new();
        let mut srow = Vec::new();
        for &f in freqs {
            let x = f.as_f64() / 1800.0;
            let t = if mem {
                dur * (1.05 - 0.05 * x)
            } else {
                dur / x
            };
            let p = 10.0 + p_active * x * x;
            trow.push(t);
            arow.push(p * t);
            srow.push((p + 180.0) * t);
        }
        time.push(trow);
        ea.push(arow);
        es.push(srow);
    }
    StageTable::from_parts(freqs.to_vec(), stages, time, ea, es).expect("consistent shapes")
}

fn assert_bits(a: &Evaluation, b: &Evaluation) -> Result<(), String> {
    prop_assert_eq!(a.time_us.to_bits(), b.time_us.to_bits());
    prop_assert_eq!(a.aicore_energy_wus.to_bits(), b.aicore_energy_wus.to_bits());
    prop_assert_eq!(a.soc_energy_wus.to_bits(), b.soc_energy_wus.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Preprocessing partitions the operator index space exactly once,
    /// regardless of profile shape or FAI.
    #[test]
    fn stages_partition_ops(records in arb_profile(), fai in 0.0f64..50_000.0) {
        let pre = preprocess(&records, fai);
        let mut next = 0;
        for s in pre.stages() {
            prop_assert_eq!(s.op_range.start, next);
            prop_assert!(s.op_range.end > s.op_range.start);
            next = s.op_range.end;
        }
        prop_assert_eq!(next, records.len());
    }

    /// Total profiled time is conserved through merging.
    #[test]
    fn duration_conserved(records in arb_profile(), fai in 0.0f64..50_000.0) {
        let total: f64 = records.iter().map(|r| r.dur_us).sum();
        let pre = preprocess(&records, fai);
        prop_assert!((pre.total_dur_us() - total).abs() < 1e-6 * total.max(1.0));
    }

    /// After merging, no stage is shorter than the FAI (unless the whole
    /// profile is one stage).
    #[test]
    fn fai_respected(records in arb_profile(), fai in 100.0f64..20_000.0) {
        let pre = preprocess(&records, fai);
        if pre.len() > 1 {
            for s in pre.stages() {
                prop_assert!(s.dur_us >= fai - 1e-9, "stage {} µs < FAI {fai}", s.dur_us);
            }
        }
    }

    /// A larger FAI never produces more candidate stages.
    #[test]
    fn coarser_fai_fewer_stages(records in arb_profile(), fai in 100.0f64..10_000.0) {
        let fine = preprocess(&records, fai);
        let coarse = preprocess(&records, 4.0 * fai);
        prop_assert!(coarse.len() <= fine.len());
    }

    /// The GA never returns something worse than the baseline individual
    /// and respects the predicted-performance bound direction: its best
    /// score is at least the baseline's score.
    #[test]
    fn ga_never_loses_to_baseline(table in arb_table(), seed in 0u64..50) {
        let mut cfg = GaConfig::default().with_population(24).with_iterations(30);
        cfg.seed = seed;
        let out = search(&table, &cfg);
        let baseline = table.baseline();
        let s_base = score(&baseline, baseline.time_us, cfg.perf_loss_target);
        prop_assert!(out.best_score >= s_base - 1e-12);
        // Score trace is monotone non-decreasing (elitism).
        for w in out.score_trace.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        // The winning strategy has one frequency per stage.
        prop_assert_eq!(out.strategy.len(), table.n_stages());
    }

    /// The incremental evaluator stays bit-identical (0 ULP) to a fresh
    /// full `StageTable::evaluate` after ANY sequence of gene flips —
    /// the invariant that lets the GA mix full, incremental and memoized
    /// evaluation without perturbing the search.
    #[test]
    fn incremental_eval_bit_identical_to_full(
        table in arb_table(),
        raw_flips in prop::collection::vec((any::<usize>(), any::<usize>()), 0..64),
    ) {
        let n = table.n_stages();
        let m = table.n_freqs();
        let mut genes = vec![m - 1; n];
        let mut inc = IncrementalEval::new(&table, &genes);
        for (rs, rg) in raw_flips {
            let (s, g) = (rs % n, rg % m);
            inc.set_gene(s, g);
            genes[s] = g;
            let fast = inc.eval();
            let full = table.evaluate(&genes);
            prop_assert_eq!(fast.time_us.to_bits(), full.time_us.to_bits());
            prop_assert_eq!(
                fast.aicore_energy_wus.to_bits(),
                full.aicore_energy_wus.to_bits()
            );
            prop_assert_eq!(
                fast.soc_energy_wus.to_bits(),
                full.soc_energy_wus.to_bits()
            );
        }
    }

    /// Probing a single-gene variant equals committing the flip, for
    /// every (stage, gene) from a random starting genome.
    #[test]
    fn probe_bit_identical_to_commit(
        table in arb_table(),
        raw_start in prop::collection::vec(any::<usize>(), 24),
    ) {
        let n = table.n_stages();
        let m = table.n_freqs();
        let genes: Vec<usize> = (0..n).map(|i| raw_start[i % raw_start.len()] % m).collect();
        let inc = IncrementalEval::new(&table, &genes);
        for s in 0..n {
            for g in 0..m {
                let probed = inc.probe(s, g);
                let mut committed = genes.clone();
                committed[s] = g;
                let full = table.evaluate(&committed);
                prop_assert_eq!(probed.time_us.to_bits(), full.time_us.to_bits());
                prop_assert_eq!(
                    probed.aicore_energy_wus.to_bits(),
                    full.aicore_energy_wus.to_bits()
                );
            }
        }
    }

    /// Scoring a bit-packed [`GenomePool`] through the engine is
    /// bit-identical (0 ULP) to scoring each genome with a fresh full
    /// `StageTable::evaluate`. This pins the whole pool path — packing,
    /// incremental fingerprints, the memo ring and the block sums — to
    /// the reference semantics.
    ///
    /// The pool interleaves a repeat of the previous genome (a memo
    /// hit), one changed gene, and every gene changed with random
    /// genomes, on one-stage and non-power-of-two tables under 4- and
    /// 8-bit gene packing. At the last genome, `probe_row` must equal
    /// `probe` for every stage and gene, the current gene included; on
    /// coupled tables that checks each candidate's own fix-point
    /// iteration count.
    #[test]
    fn pool_scoring_bit_identical_to_full_evaluation(
        table in arb_shaped_table(),
        raw_genomes in prop::collection::vec(prop::collection::vec(any::<usize>(), 40), 1..120),
        raw_edit in (any::<usize>(), any::<usize>()),
    ) {
        let n = table.n_stages();
        let m = table.n_freqs();
        let baseline = table.baseline().time_us;
        let loss = 0.02;
        let mut population: Vec<Vec<usize>> = Vec::new();
        for raw in &raw_genomes {
            let genes: Vec<usize> = (0..n).map(|i| raw[i] % m).collect();
            let repeat = genes.clone();
            let mut one = genes.clone();
            one[raw_edit.0 % n] = (one[raw_edit.0 % n] + 1 + raw_edit.1 % (m - 1)) % m;
            let whole: Vec<usize> = one.iter().map(|&g| (g + 1) % m).collect();
            population.extend([genes, repeat, one, whole]);
        }
        let mut pool = GenomePool::new(&table);
        for genes in &population {
            pool.push_genes(genes);
        }
        let full: Vec<Evaluation> = population.iter().map(|g| table.evaluate(g)).collect();

        let mut engine = EvalEngine::new(&table, baseline, loss);
        let got = engine.score_pool(&pool);
        prop_assert_eq!(got.len(), full.len());
        for (i, (g, e)) in got.iter().zip(&full).enumerate() {
            let e = score(e, baseline, loss);
            prop_assert_eq!(g.to_bits(), e.to_bits(), "genome {i}: {g} vs {e}");
        }

        let last = population.last().expect("at least one genome");
        let inc = IncrementalEval::new(&table, last);
        for s in 0..n {
            let mut row = Vec::with_capacity(m);
            inc.probe_row(s, |g, e| row.push((g, e)));
            prop_assert_eq!(row.len(), m);
            for (g, e) in row {
                assert_bits(&e, &inc.probe(s, g))?;
            }
        }
    }

    /// The block sums every pool edit derives from its parents' never
    /// drift from the genes: after any sequence of `push_genes`,
    /// `push_copy_from`, `push_clone`, `swap_suffix`, `set_gene`,
    /// `truncate` and `clear` over two pools of one table, a fresh
    /// engine scores every genome of both pools bit-identically (0 ULP)
    /// to `StageTable::evaluate` of its unpacked genes.
    ///
    /// Stage counts straddle block widths (1, 2, 3; 7, 8, 9 and 31, 32,
    /// 33 around widths 4 and 8) or are non-powers of two above 256
    /// (width 32, a partial last block and zero padding blocks), under
    /// 4- and 8-bit packing, mostly thermally coupled. Crossover cuts
    /// fall on a block boundary, inside a block, at `k = 1` and at
    /// `k = n − 1`; some mutations write the gene already there.
    #[test]
    fn block_sums_stay_coherent_through_every_pool_edit(
        table in shaped_table(
            prop_oneof![
                (0usize..9).prop_map(|i| [1, 2, 3, 7, 8, 9, 31, 32, 33][i]),
                257usize..400,
            ],
            400,
        ),
        ops in prop::collection::vec(
            (0u8..7, any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>()),
            1..48,
        ),
    ) {
        let n = table.n_stages();
        let m = table.n_freqs();
        let baseline = table.baseline().time_us;
        let loss = 0.02;
        let mut pools = [GenomePool::new(&table), GenomePool::new(&table)];
        let width = pools[0].block_width();
        let mut genes = Vec::new();
        for (op, r1, r2, r3, r4) in ops {
            let (dst, src) = (r1 % 2, 1 - r1 % 2);
            let len = pools[dst].len();
            // Edits of existing genomes fall back to a push on an
            // empty pool.
            let op = if len == 0 && matches!(op, 2..=4) { 0 } else { op };
            match op {
                0 => {
                    genes.clear();
                    genes.extend((0..n).map(|s| r2.wrapping_add(s.wrapping_mul(r3)) % m));
                    pools[dst].push_genes(&genes);
                }
                1 if !pools[src].is_empty() => {
                    let from = r2 % pools[src].len();
                    let [p0, p1] = &mut pools;
                    let (to, from_pool) = if dst == 0 { (p0, &*p1) } else { (p1, &*p0) };
                    to.push_copy_from(from_pool, from);
                }
                1 => {}
                2 => {
                    pools[dst].push_clone(r2 % len);
                }
                3 => {
                    let cut = match r4 % 5 {
                        0 => (r3 % n.div_ceil(width)) * width,
                        1 => (r3 % n.div_ceil(width)) * width + 1 + r3 % width.max(2) / 2,
                        2 => n - 1,
                        3 => 1,
                        _ => r3 % (n + 1),
                    }
                    .min(n);
                    pools[dst].swap_suffix(r2 % len, r3 % len, cut);
                }
                4 => {
                    let (idx, stage) = (r2 % len, r3 % n);
                    let gene = if r4 % 4 == 0 {
                        pools[dst].gene(idx, stage)
                    } else {
                        r4 % m
                    };
                    pools[dst].set_gene(idx, stage, gene);
                }
                5 => pools[dst].truncate(r2 % (len + 1)),
                _ => pools[dst].clear(),
            }
        }
        for pool in &pools {
            let mut engine = EvalEngine::new(&table, baseline, loss);
            let got = engine.score_pool(pool).to_vec();
            prop_assert_eq!(got.len(), pool.len());
            for (i, g) in got.iter().enumerate() {
                pool.read_genes(i, &mut genes);
                let want = score(&table.evaluate(&genes), baseline, loss);
                prop_assert_eq!(g.to_bits(), want.to_bits(), "genome {}: {} vs {}", i, g, want);
            }
        }
    }

    /// On thermally-uncoupled tables the Pareto-DP oracle certifies a
    /// true optimum: its score is ≥ every GA result and the returned
    /// genome achieves the reported score bit-exactly through the
    /// ordinary evaluation path.
    #[test]
    fn exact_oracle_certifies_and_dominates_the_ga(
        table in arb_table_sized(2..10),
        seed in 0u64..1_000,
    ) {
        let loss = 0.02;
        let out = exact::solve(&table, &exact::ExactConfig::default().with_loss_target(loss));
        prop_assert!(out.certified, "uncoupled table must certify");
        let achieved = score(&table.evaluate(&out.genes), table.baseline().time_us, loss);
        prop_assert_eq!(achieved.to_bits(), out.score.to_bits());
        let mut cfg = GaConfig::default().with_population(24).with_iterations(20);
        cfg.seed = seed;
        let ga = search(&table, &cfg);
        prop_assert!(
            out.score >= ga.best_score,
            "oracle {} below GA {}", out.score, ga.best_score
        );
    }

    /// A GA seeded from the Lagrangian ladder is guaranteed (elitism +
    /// score-monotone refinement) to finish at least as high as its best
    /// seed, on any table.
    #[test]
    fn oracle_seeded_ga_dominates_its_seeds(table in arb_table(), seed in 0u64..1_000) {
        let mut cfg = GaConfig::default()
            .with_population(40)
            .with_iterations(10)
            .with_oracle_seeds(4);
        cfg.seed = seed;
        let seeded = search(&table, &cfg);
        let best_seed = exact::lagrangian_seeds(&table, cfg.perf_loss_target, 4)
            .into_iter()
            .map(|s| s.score)
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(
            seeded.best_score >= best_seed,
            "seeded GA {} below its own best seed {}", seeded.best_score, best_seed
        );
    }

    /// Score doubles exactly at the performance bound and decreases with
    /// power.
    #[test]
    fn score_structure(time in 50.0f64..1e6, power in 1.0f64..500.0, target in 0.005f64..0.2) {
        let eval_fast = npu_dvfs::Evaluation {
            time_us: time,
            aicore_energy_wus: power * time,
            soc_energy_wus: (power + 100.0) * time,
        };
        // Safely at the bound (tiny margin guards fp rounding of rel).
        let baseline = time * (1.0 - target) * (1.0 + 1e-9);
        let s = score(&eval_fast, baseline, target);
        let rel = baseline / time;
        prop_assert!((s - 2.0 * rel * rel / power).abs() < 1e-9 * s);
        // Just past the bound: bonus lost.
        let s_slow = score(&eval_fast, baseline * 0.999, target);
        prop_assert!(s_slow < s);
        // More power, lower score.
        let eval_hot = npu_dvfs::Evaluation {
            aicore_energy_wus: 2.0 * power * time,
            ..eval_fast
        };
        prop_assert!(score(&eval_hot, baseline, target) < s);
    }
}
