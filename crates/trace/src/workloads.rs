//! The named workload suite.
//!
//! The paper evaluates 75 workloads in 9 categories (Table 4) and uses a
//! 42-workload memory-intensive subset for the line graph of Figure 13 and
//! the multi-programmed mixes. This module defines the synthetic stand-ins:
//! each named workload is a seeded [`GeneratorSpec`] whose structure mirrors
//! the paper's description of that category (see the crate docs and the
//! workload-substitution note at the top of the README).

use crate::record::Trace;
use crate::source::SynthSource;
use crate::synth::{
    CodeHeavyGen, GeneratorSpec, IrregularGen, MixedGen, PatternGenerator, PointerChaseGen,
    SpatialPatternGen, StreamGen, StridedGen,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The nine workload categories of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum WorkloadCategory {
    /// Client applications (compression, media encode/decode).
    Client,
    /// Server workloads (TPC-C, SPECjbb, Spark): huge code footprints.
    Server,
    /// HPC kernels (linpack, NPB, PARSEC): dense regular streams.
    Hpc,
    /// SPEC CPU2006 floating point.
    Fspec06,
    /// SPEC CPU2006 integer.
    Ispec06,
    /// SPEC CPU2017 floating point.
    Fspec17,
    /// SPEC CPU2017 integer.
    Ispec17,
    /// Cloud / big-data workloads (BigBench, Cassandra, Hadoop).
    Cloud,
    /// SYSmark productivity applications.
    Sysmark,
}

impl WorkloadCategory {
    /// All categories in the order the paper's figures plot them.
    pub const ALL: [WorkloadCategory; 9] = [
        WorkloadCategory::Client,
        WorkloadCategory::Server,
        WorkloadCategory::Hpc,
        WorkloadCategory::Fspec06,
        WorkloadCategory::Ispec06,
        WorkloadCategory::Fspec17,
        WorkloadCategory::Ispec17,
        WorkloadCategory::Cloud,
        WorkloadCategory::Sysmark,
    ];

    /// Short label used in reports (matches the paper's x-axis labels).
    pub fn label(self) -> &'static str {
        match self {
            WorkloadCategory::Client => "Client",
            WorkloadCategory::Server => "Server",
            WorkloadCategory::Hpc => "HPC",
            WorkloadCategory::Fspec06 => "FSPEC06",
            WorkloadCategory::Ispec06 => "ISPEC06",
            WorkloadCategory::Fspec17 => "FSPEC17",
            WorkloadCategory::Ispec17 => "ISPEC17",
            WorkloadCategory::Cloud => "Cloud",
            WorkloadCategory::Sysmark => "SYSmark",
        }
    }
}

impl fmt::Display for WorkloadCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A named synthetic workload: category, generator and seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name (synthetic stand-in for a SPEC/server/cloud benchmark).
    pub name: String,
    /// Category the workload belongs to.
    pub category: WorkloadCategory,
    /// Generator producing the access pattern.
    pub generator: GeneratorSpec,
    /// Seed making the workload deterministic.
    pub seed: u64,
    /// Whether the workload belongs to the 42-entry memory-intensive subset.
    pub memory_intensive: bool,
}

impl WorkloadSpec {
    /// Generates a trace of `accesses` memory accesses for this workload.
    pub fn generate(&self, accesses: usize) -> Trace {
        Trace::new(
            self.name.clone(),
            self.generator.generate_records(self.seed, accesses),
        )
    }

    /// Starts a lazily-evaluated streaming source of `accesses` records —
    /// bit-identical to [`WorkloadSpec::generate`] without materializing the
    /// trace (O(1) memory however long the run).
    pub fn source(&self, accesses: usize) -> SynthSource {
        SynthSource::new(
            self.name.clone(),
            self.generator.clone(),
            self.seed,
            accesses,
        )
    }
}

fn spatial(layouts: usize, density: usize, reorder: usize, gap: u32) -> GeneratorSpec {
    GeneratorSpec::Spatial(SpatialPatternGen {
        layouts,
        density,
        reorder_window: reorder,
        working_set_pages: 1 << 14,
        gap,
    })
}

fn stream(streams: usize, gap: u32) -> GeneratorSpec {
    GeneratorSpec::Stream(StreamGen {
        streams,
        gap,
        store_percent: 20,
    })
}

fn strided(stride: u64, streams: usize, gap: u32) -> GeneratorSpec {
    GeneratorSpec::Strided(StridedGen {
        stride_lines: stride,
        streams,
        gap,
    })
}

fn irregular(pages: u64, per_page: usize, gap: u32) -> GeneratorSpec {
    GeneratorSpec::Irregular(IrregularGen {
        footprint_pages: pages,
        accesses_per_page: per_page,
        pcs: 32,
        gap,
    })
}

fn chase(nodes: u64, gap: u32) -> GeneratorSpec {
    GeneratorSpec::PointerChase(PointerChaseGen {
        nodes,
        node_bytes: 192,
        gap,
    })
}

fn code_heavy(pcs: usize, gap: u32) -> GeneratorSpec {
    GeneratorSpec::CodeHeavy(CodeHeavyGen {
        distinct_pcs: pcs,
        burst: 3,
        footprint_pages: 1 << 15,
        gap,
    })
}

fn mix(parts: Vec<(u32, GeneratorSpec)>) -> GeneratorSpec {
    GeneratorSpec::Mixed(MixedGen::new(parts))
}

struct CategoryPlan {
    category: WorkloadCategory,
    names: &'static [&'static str],
    memory_intensive: &'static [bool],
    build: fn(usize) -> GeneratorSpec,
}

fn category_plans() -> Vec<CategoryPlan> {
    vec![
        CategoryPlan {
            category: WorkloadCategory::Client,
            names: &[
                "7zip-compress",
                "7zip-decompress",
                "vp9-encode",
                "vp9-decode",
                "image-filter",
                "pdf-render",
                "browser-layout",
                "audio-transcode",
            ],
            memory_intensive: &[true, true, true, false, true, false, false, false],
            build: |i| {
                mix(vec![
                    (3, stream(2 + i % 3, 48)),
                    (2, spatial(8 + i, 8, 4, 40)),
                    (1, irregular(1 << 14, 2, 36)),
                ])
            },
        },
        CategoryPlan {
            category: WorkloadCategory::Server,
            names: &[
                "tpcc",
                "specjbb2015",
                "specjenterprise",
                "spark-pagerank",
                "web-frontend",
                "mail-index",
                "rpc-broker",
                "db-oltp",
            ],
            memory_intensive: &[true, true, false, true, false, false, false, true],
            build: |i| {
                mix(vec![
                    (4, code_heavy(3000 + i * 500, 36)),
                    (2, irregular(1 << 15, 2, 40)),
                    (1, stream(2, 48)),
                ])
            },
        },
        CategoryPlan {
            category: WorkloadCategory::Hpc,
            names: &[
                "linpack",
                "npb-cg",
                "npb-mg",
                "npb-ft",
                "parsec-stream",
                "stencil-2d",
                "spec-accel-lbm",
                "spmv",
                "fft-batch",
            ],
            memory_intensive: &[true, true, true, true, false, false, true, false, false],
            build: |i| {
                mix(vec![
                    (5, stream(4 + i % 4, 40)),
                    (2, strided(2 + (i as u64 % 6), 2, 44)),
                ])
            },
        },
        CategoryPlan {
            category: WorkloadCategory::Fspec06,
            names: &[
                "sphinx3",
                "soplex",
                "gemsfdtd",
                "lbm06",
                "milc",
                "leslie3d",
                "zeusmp",
                "cactusadm",
                "bwaves06",
            ],
            memory_intensive: &[true, true, true, true, true, true, false, false, false],
            build: |i| {
                mix(vec![
                    (4, stream(3, 44)),
                    (3, strided(1 + (i as u64 % 8), 2, 48)),
                    (1, spatial(6, 12, 3, 40)),
                ])
            },
        },
        CategoryPlan {
            category: WorkloadCategory::Ispec06,
            names: &[
                "mcf06",
                "omnetpp06",
                "gcc06",
                "astar",
                "xalancbmk06",
                "libquantum",
                "bzip2",
                "gobmk",
            ],
            memory_intensive: &[true, true, true, true, true, false, false, false],
            build: |i| {
                mix(vec![
                    (3, chase(1 << (14 + i % 3), 20)),
                    (3, spatial(10 + i, 9, 6, 36)),
                    (2, irregular(1 << 15, 2, 36)),
                    (1, stream(2, 44)),
                ])
            },
        },
        CategoryPlan {
            category: WorkloadCategory::Fspec17,
            names: &[
                "lbm17",
                "cam4",
                "roms",
                "fotonik3d",
                "nab",
                "bwaves17",
                "wrf",
                "povray",
                "namd",
            ],
            memory_intensive: &[true, true, true, true, false, true, false, false, false],
            build: |i| {
                mix(vec![
                    (5, stream(4, 40)),
                    (2, strided(3 + (i as u64 % 5), 3, 44)),
                ])
            },
        },
        CategoryPlan {
            category: WorkloadCategory::Ispec17,
            names: &[
                "mcf17",
                "omnetpp17",
                "xalancbmk17",
                "leela",
                "deepsjeng",
                "x264",
                "gcc17",
                "xz",
            ],
            memory_intensive: &[true, true, true, false, false, false, true, false],
            build: |i| {
                mix(vec![
                    (4, spatial(14 + i, 8, 8, 36)),
                    (2, irregular(1 << 16, 2, 36)),
                    (2, chase(1 << 15, 24)),
                ])
            },
        },
        CategoryPlan {
            category: WorkloadCategory::Cloud,
            names: &[
                "bigbench-q1",
                "cassandra-read",
                "cassandra-write",
                "hbase-scan",
                "kmeans",
                "streaming-agg",
                "hadoop-sort",
                "kv-store",
            ],
            memory_intensive: &[true, true, true, true, false, true, false, false],
            build: |i| {
                mix(vec![
                    (4, spatial(16 + i * 2, 7, 7, 36)),
                    (3, irregular(1 << 16, 2, 40)),
                    (1, code_heavy(2000, 36)),
                ])
            },
        },
        CategoryPlan {
            category: WorkloadCategory::Sysmark,
            names: &[
                "sysmark-excel",
                "sysmark-word",
                "sysmark-photoshop",
                "sysmark-sketchup",
                "sysmark-media",
                "sysmark-mail",
                "sysmark-browse",
                "sysmark-archive",
            ],
            memory_intensive: &[true, false, true, true, false, false, true, false],
            build: |i| {
                mix(vec![
                    (4, spatial(12 + i, 6, 5, 40)),
                    (2, code_heavy(1500 + i * 200, 40)),
                    (1, stream(2, 48)),
                ])
            },
        },
    ]
}

/// Builds the full 75-workload suite (Table 4).
pub fn suite() -> Vec<WorkloadSpec> {
    let mut workloads = Vec::with_capacity(75);
    for (plan_index, plan) in category_plans().into_iter().enumerate() {
        assert_eq!(
            plan.names.len(),
            plan.memory_intensive.len(),
            "category plan arrays must line up"
        );
        for (i, name) in plan.names.iter().enumerate() {
            workloads.push(WorkloadSpec {
                name: (*name).to_owned(),
                category: plan.category,
                generator: (plan.build)(i),
                seed: 0xD5_0000 + plan_index as u64 * 1000 + i as u64,
                memory_intensive: plan.memory_intensive[i],
            });
        }
    }
    workloads
}

/// The 42-workload memory-intensive subset used by Figure 13 and the
/// multi-programmed experiments.
pub fn memory_intensive_suite() -> Vec<WorkloadSpec> {
    suite().into_iter().filter(|w| w.memory_intensive).collect()
}

/// Returns the workloads of one category.
pub fn category_suite(category: WorkloadCategory) -> Vec<WorkloadSpec> {
    suite()
        .into_iter()
        .filter(|w| w.category == category)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn suite_has_75_workloads_across_9_categories() {
        let all = suite();
        assert_eq!(all.len(), 75);
        let categories: BTreeSet<WorkloadCategory> = all.iter().map(|w| w.category).collect();
        assert_eq!(categories.len(), 9);
    }

    #[test]
    fn memory_intensive_subset_has_42_workloads() {
        assert_eq!(memory_intensive_suite().len(), 42);
    }

    #[test]
    fn names_are_unique() {
        let all = suite();
        let names: BTreeSet<&str> = all.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn seeds_are_unique() {
        let all = suite();
        let seeds: BTreeSet<u64> = all.iter().map(|w| w.seed).collect();
        assert_eq!(seeds.len(), all.len());
    }

    #[test]
    fn every_category_has_workloads() {
        for category in WorkloadCategory::ALL {
            assert!(!category_suite(category).is_empty(), "{category} is empty");
        }
    }

    #[test]
    fn workload_generation_is_deterministic() {
        let all = suite();
        let w = &all[0];
        assert_eq!(w.generate(500), w.generate(500));
    }

    #[test]
    fn category_structures_differ() {
        // HPC is dense (few pages, each fully walked); Cloud is sparse and
        // spreads the same number of accesses over far more pages.
        let hpc = category_suite(WorkloadCategory::Hpc)[0].generate(5000);
        let cloud = category_suite(WorkloadCategory::Cloud)[0].generate(5000);
        assert!(
            cloud.footprint_pages() > hpc.footprint_pages() * 3,
            "Cloud ({} pages) should be much sparser than HPC ({} pages)",
            cloud.footprint_pages(),
            hpc.footprint_pages()
        );
    }

    #[test]
    fn server_workloads_have_large_pc_footprints() {
        let server = category_suite(WorkloadCategory::Server)[0].generate(20_000);
        let hpc = category_suite(WorkloadCategory::Hpc)[0].generate(20_000);
        assert!(server.distinct_pcs() > hpc.distinct_pcs() * 10);
    }

    #[test]
    fn labels_match_paper_axis_labels() {
        assert_eq!(WorkloadCategory::Hpc.label(), "HPC");
        assert_eq!(WorkloadCategory::Sysmark.label(), "SYSmark");
        assert_eq!(WorkloadCategory::ALL.len(), 9);
    }
}
