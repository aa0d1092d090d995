//! Build and run a custom experiment campaign programmatically: the same
//! declarative [`CampaignSpec`] the `dspatch-lab --spec` CLI consumes as a
//! JSON file, constructed in Rust. The engine deduplicates simulations and
//! memoizes every (workload, config) baseline, so adding prefetcher columns
//! costs one simulation each — not two.
//!
//! Run with `cargo run --release --example custom_campaign`.

use dspatch_harness::campaign::{
    run_campaign, CampaignSpec, CellSpec, ConfigSpec, PrefetcherSel, ScaleSpec, TargetSelector,
};
use dspatch_harness::runner::PrefetcherKind;
use dspatch_repro::example_accesses;
use dspatch_sim::DramSpeedGrade;
use dspatch_trace::workloads::WorkloadCategory;

fn main() {
    let spec = CampaignSpec {
        name: "custom campaign: cloud workloads under bandwidth pressure".to_owned(),
        scale: Some(ScaleSpec::Custom {
            accesses_per_workload: example_accesses(6_000),
            workloads_per_category: 2,
            mixes: 1,
            threads: None, // available_parallelism
            sampling: None,
        }),
        cells: vec![
            CellSpec {
                label: "full bandwidth".to_owned(),
                targets: TargetSelector::Category(WorkloadCategory::Cloud),
                prefetchers: vec![
                    PrefetcherSel::Kind(PrefetcherKind::Spp),
                    PrefetcherSel::Kind(PrefetcherKind::DspatchPlusSpp),
                ],
                config: ConfigSpec::single_thread(),
                baseline: true,
            },
            CellSpec {
                label: "starved (1ch DDR4-1600)".to_owned(),
                targets: TargetSelector::Category(WorkloadCategory::Cloud),
                prefetchers: vec![
                    PrefetcherSel::Kind(PrefetcherKind::Spp),
                    PrefetcherSel::Kind(PrefetcherKind::DspatchPlusSpp),
                ],
                config: ConfigSpec::single_thread().with_dram(1, DramSpeedGrade::Ddr4_1600),
                baseline: true,
            },
        ],
    };

    // The spec is a data file: this JSON is exactly what `dspatch-lab
    // --spec my_campaign.json` accepts.
    println!("--- spec ---\n{}", spec.to_json().render());

    let scale = spec
        .scale
        .as_ref()
        .expect("spec carries a scale")
        .resolve()
        .expect("valid scale");
    let result = run_campaign(&spec, &scale).expect("valid campaign");
    println!("--- report ---\n{}", result.to_table().render());
    println!(
        "{} rows from {} simulations ({} baselines, {} requests served by the memo table) on {} threads",
        result.rows.len(),
        result.stats.sims_run,
        result.stats.baseline_sims,
        result.stats.memo_hits,
        result.stats.threads
    );
}
