//! Golden output of the paper's multi-core figures at smoke scale.
//!
//! Figures 17 and 18 hinge on shared-resource contention: DSPatch picks its
//! coverage- or accuracy-biased pattern from the DRAM bandwidth it observes,
//! so a core must see the other cores' LLC and DRAM traffic in the cycle it
//! happens. These bytes come from the exact cycle-interleaved engine; an
//! engine that shows a core the other cores' traffic late (bounded-lag epochs,
//! for instance) moves the perf deltas by several points and fails here.

use dspatch_harness::runner::RunScale;
use dspatch_harness::FigureId;

fn smoke_csv(name: &str) -> String {
    let id = FigureId::parse(name).expect("figure exists");
    id.run(&RunScale::smoke()).to_csv()
}

#[test]
fn fig17_smoke_csv_is_pinned() {
    assert_eq!(
        smoke_csv("fig17"),
        "\
Configuration,Prefetcher,Perf delta
homogeneous DDR4-2133,BOP,0.0%
homogeneous DDR4-2133,SMS,9.6%
homogeneous DDR4-2133,SPP,0.3%
homogeneous DDR4-2133,DSPatch+SPP,-0.3%
"
    );
}

#[test]
fn fig18_smoke_csv_is_pinned() {
    assert_eq!(
        smoke_csv("fig18"),
        "\
Configuration,Prefetcher,Perf delta
homogeneous DDR4-2133,BOP,0.0%
homogeneous DDR4-2133,SMS,9.6%
homogeneous DDR4-2133,SPP,0.3%
homogeneous DDR4-2133,DSPatch+SPP,-0.3%
heterogeneous DDR4-2133,BOP,0.0%
heterogeneous DDR4-2133,SMS,5.3%
heterogeneous DDR4-2133,SPP,0.9%
heterogeneous DDR4-2133,DSPatch+SPP,0.7%
homogeneous DDR4-2400,BOP,0.0%
homogeneous DDR4-2400,SMS,8.8%
homogeneous DDR4-2400,SPP,0.5%
homogeneous DDR4-2400,DSPatch+SPP,-0.8%
heterogeneous DDR4-2400,BOP,0.0%
heterogeneous DDR4-2400,SMS,5.1%
heterogeneous DDR4-2400,SPP,0.8%
heterogeneous DDR4-2400,DSPatch+SPP,-0.4%
"
    );
}
