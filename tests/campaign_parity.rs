//! Golden parity tests for the Campaign API redesign: every figure function
//! now routes through the shared campaign engine, and these tests assert
//! the results are *identical* (bit-exact, thanks to deterministic traces
//! and simulation) to the pre-redesign direct computation — per-workload
//! baseline + candidate runs composed exactly the way the old bespoke
//! per-figure loops did — plus a JSON↔spec round-trip property test.

use dspatch_harness::campaign::{
    CampaignSpec, CellSpec, ConfigBase, ConfigSpec, PrefetcherSel, ScaleSpec, TargetSelector,
};
use dspatch_harness::figures::FigureId;
use dspatch_harness::runner::{geomean, run_mix, run_workload, PrefetcherKind, RunScale};
use dspatch_prefetchers::{SmsConfig, SmsPrefetcher};
use dspatch_sim::{DramSpeedGrade, SimulationBuilder, SystemConfig};
use dspatch_trace::homogeneous_mixes;
use dspatch_trace::workloads::{category_suite, suite, WorkloadCategory};
use proptest::prelude::*;

fn tiny() -> RunScale {
    RunScale {
        accesses_per_workload: 800,
        workloads_per_category: 1,
        mixes: 1,
        threads: 4,
        sampling: None,
    }
}

/// The pre-redesign per-workload speedup loop: baseline then candidate,
/// simulated fresh for every (workload, kind) pair.
fn direct_speedups(
    workloads: &[dspatch_trace::WorkloadSpec],
    kind: PrefetcherKind,
    config: &SystemConfig,
    scale: &RunScale,
) -> Vec<f64> {
    workloads
        .iter()
        .map(|workload| {
            let baseline = run_workload(workload, PrefetcherKind::Baseline, config, scale);
            run_workload(workload, kind, config, scale).speedup_over(&baseline)
        })
        .collect()
}

#[test]
fn fig4_matches_the_pre_redesign_direct_computation() {
    let scale = tiny();
    let fig = dspatch_harness::experiments::fig4_baseline_prefetchers(&scale);
    let kinds = [
        PrefetcherKind::Bop,
        PrefetcherKind::Sms,
        PrefetcherKind::Spp,
    ];
    let config = SystemConfig::single_thread();
    let mut expected = Vec::new();
    let mut per_kind_all: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    for category in WorkloadCategory::ALL {
        let workloads = scale.select_workloads(category_suite(category));
        if workloads.is_empty() {
            continue;
        }
        let mut deltas = Vec::new();
        for (k, kind) in kinds.iter().enumerate() {
            let speedups = direct_speedups(&workloads, *kind, &config, &scale);
            per_kind_all[k].extend(speedups.iter().copied());
            deltas.push(geomean(&speedups) - 1.0);
        }
        expected.push((category.label().to_owned(), deltas));
    }
    expected.push((
        "GEOMEAN".to_owned(),
        per_kind_all.iter().map(|s| geomean(s) - 1.0).collect(),
    ));
    assert_eq!(
        fig.rows, expected,
        "campaign-backed fig4 must be bit-identical"
    );
}

#[test]
fn fig17_matches_the_pre_redesign_direct_computation() {
    let scale = tiny();
    let fig = dspatch_harness::experiments::fig17_homogeneous(&scale);
    let kinds = [
        PrefetcherKind::Bop,
        PrefetcherKind::Sms,
        PrefetcherKind::Spp,
        PrefetcherKind::DspatchPlusSpp,
    ];
    let mixes = scale.select_mixes(homogeneous_mixes(4));
    let config = SystemConfig::multi_programmed();
    let expected: Vec<(String, PrefetcherKind, f64)> = kinds
        .iter()
        .map(|kind| {
            let speedups: Vec<f64> = mixes
                .iter()
                .map(|mix| {
                    let baseline = run_mix(mix, PrefetcherKind::Baseline, &config, &scale);
                    run_mix(mix, *kind, &config, &scale).speedup_over(&baseline)
                })
                .collect();
            (
                "homogeneous DDR4-2133".to_owned(),
                *kind,
                geomean(&speedups) - 1.0,
            )
        })
        .collect();
    assert_eq!(
        fig.rows, expected,
        "campaign-backed fig17 must be bit-identical"
    );
}

#[test]
fn fig19_matches_the_pre_redesign_direct_computation() {
    let scale = tiny();
    let fig = dspatch_harness::experiments::fig19_ablation(&scale);
    let config = SystemConfig::single_thread().with_dram(1, DramSpeedGrade::Ddr4_1600);
    let workloads = scale.select_workloads(dspatch_trace::workloads::memory_intensive_suite());
    for (kind, delta) in &fig.rows {
        let expected = geomean(&direct_speedups(&workloads, *kind, &config, &scale)) - 1.0;
        assert_eq!(*delta, expected, "{}", kind.label());
    }
}

#[test]
fn fig5_matches_the_pre_redesign_direct_computation() {
    let scale = tiny();
    let fig = dspatch_harness::experiments::fig5_sms_storage_sweep(&scale);
    let workloads = scale.select_workloads(suite());
    let config = SystemConfig::single_thread();
    for (entries, _, delta) in &fig.rows {
        let speedups: Vec<f64> = workloads
            .iter()
            .map(|workload| {
                let baseline = run_workload(workload, PrefetcherKind::Baseline, &config, &scale);
                let result = SimulationBuilder::new(config.clone())
                    .with_core(
                        workload.generate(scale.accesses_per_workload),
                        SmsPrefetcher::new(SmsConfig::with_pht_entries(*entries)),
                    )
                    .run();
                result.speedup_over(&baseline)
            })
            .collect();
        assert_eq!(*delta, geomean(&speedups) - 1.0, "PHT={entries}");
    }
}

#[test]
fn every_named_figure_runs_through_the_registry() {
    let scale = RunScale {
        accesses_per_workload: 600,
        workloads_per_category: 1,
        mixes: 1,
        threads: 4,
        sampling: None,
    };
    for id in FigureId::ALL {
        let table = id.run(&scale);
        let text = table.render();
        assert!(!text.trim().is_empty(), "{} rendered empty", id.name());
        assert!(
            !table.headers.is_empty(),
            "{} produced a headerless table",
            id.name()
        );
        // Every format stays available for every figure.
        assert!(dspatch_harness::Json::parse(&table.to_json().render()).is_ok());
        assert!(table.to_csv().lines().count() >= 1);
    }
}

/// Deterministic pseudo-random spec builder for the round-trip property.
fn arbitrary_spec(seed: u64) -> CampaignSpec {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move |bound: u64| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound.max(1)
    };
    let kinds = PrefetcherKind::ALL;
    let categories = WorkloadCategory::ALL;
    let cell_count = 1 + next(3) as usize;
    let cells = (0..cell_count)
        .map(|i| {
            let targets = match next(6) {
                0 => TargetSelector::Suite,
                1 => TargetSelector::MemoryIntensive,
                2 => TargetSelector::Category(categories[next(9) as usize]),
                3 => TargetSelector::Workloads(vec![
                    format!("workload-{}", next(100)),
                    "name with \"quotes\" and ≥ unicode".to_owned(),
                ]),
                4 => TargetSelector::HomogeneousMixes {
                    cores: 1 + next(8) as usize,
                },
                // Seeds ≤ 2^53 serialize as JSON numbers, larger ones as
                // decimal strings; exercise both encodings.
                _ => TargetSelector::HeterogeneousMixes {
                    count: next(100) as usize,
                    cores: 1 + next(8) as usize,
                    seed: if next(2) == 0 {
                        next(1 << 53)
                    } else {
                        u64::MAX - next(1 << 40)
                    },
                },
            };
            let mut prefetchers: Vec<PrefetcherSel> = (0..1 + next(4))
                .map(|_| PrefetcherSel::Kind(kinds[next(15) as usize]))
                .collect();
            if next(2) == 0 {
                prefetchers.push(PrefetcherSel::SmsPht(1 << next(15)));
            }
            let mut config = if next(2) == 0 {
                ConfigSpec::single_thread()
            } else {
                ConfigSpec::multi_programmed()
            };
            if next(2) == 0 {
                config =
                    config.with_dram(1 + next(2) as usize, DramSpeedGrade::ALL[next(3) as usize]);
            }
            if next(2) == 0 {
                config = config.with_llc_bytes(1 << (20 + next(4)));
            }
            CellSpec {
                label: format!("cell {i} · τ={}", next(1000)),
                targets,
                prefetchers,
                config,
                baseline: next(2) == 0,
            }
        })
        .collect();
    let scale = match next(3) {
        0 => None,
        1 => Some(ScaleSpec::Preset(
            ["smoke", "quick", "full"][next(3) as usize].to_owned(),
        )),
        _ => Some(ScaleSpec::Custom {
            accesses_per_workload: next(100_000) as usize,
            workloads_per_category: next(10) as usize,
            mixes: next(10) as usize,
            threads: if next(2) == 0 {
                None
            } else {
                Some(1 + next(64) as usize)
            },
            sampling: if next(2) == 0 {
                None
            } else {
                Some(dspatch_harness::SamplingPlan {
                    warmup_accesses: 1 + next(5_000),
                    interval_accesses: 1 + next(2_000),
                    intervals: 1 + next(8) as u32,
                    seed: next(1 << 30),
                })
            },
        }),
    };
    CampaignSpec {
        name: format!("campaign \"{seed}\" — line1\nline2\t≥50%"),
        scale,
        cells,
    }
}

proptest! {
    #[test]
    fn spec_round_trips_through_json(seed in 0u64..512) {
        let spec = arbitrary_spec(seed);
        let pretty = spec.to_json().render();
        let reparsed = CampaignSpec::parse(&pretty).expect("rendered spec parses");
        prop_assert_eq!(&reparsed, &spec);
        // The compact form round-trips identically.
        let compact = spec.to_json().render_compact();
        let reparsed_compact = CampaignSpec::parse(&compact).expect("compact spec parses");
        prop_assert_eq!(&reparsed_compact, &spec);
        // Base enum survives (spot check the first cell).
        let first = &reparsed.cells[0];
        prop_assert!(matches!(
            first.config.base,
            ConfigBase::SingleThread | ConfigBase::MultiProgrammed
        ));
    }
}
