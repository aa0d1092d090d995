//! Host-time benchmark of the DSPatch reproduction.
//!
//! ```text
//! perfbench --workload <uni_dspatch_spp|mc_campaign|serve_query>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Every input is generated from `--seed`. An untraced run (`--trace 0`)
//! reports the end-to-end metrics; a traced run (`--trace 1`) the per-layer
//! metrics. The last line of standard output is the result object; the
//! line before it is the detailed record (median, quartiles and sample
//! count of every metric, the `model.*` counts, every output check, the
//! seed and `host_cpus`), also written to `.perfbench/results/`. Spans of a
//! traced run go to `.perfbench/spans/`. A failed output check exits 1.

mod layers;
mod mc;
mod report;
mod serve;
mod uni;
mod util;

use report::Report;
use std::path::{Path, PathBuf};

pub const WORKLOADS: &[&str] = &["uni_dspatch_spp", "mc_campaign", "serve_query"];

/// Input sizes of one run.
#[derive(Debug, Clone)]
pub struct Size {
    /// Trace length of `uni_dspatch_spp`.
    pub uni_accesses: usize,
    /// Records per timed window of `uni_dspatch_spp`.
    pub window: usize,
    /// Accesses per core of every `mc_campaign` mix.
    pub mc_accesses: usize,
    /// Homogeneous mixes, and heterogeneous mixes drawn, per campaign.
    pub mc_mixes: usize,
    /// Synthetic rows in the `serve_query` store.
    pub serve_rows: usize,
    /// Accesses of the real simulations the synthetic rows are cloned from.
    pub serve_real_accesses: usize,
    /// Accesses per workload of each POSTed campaign (plus a unique offset).
    pub serve_post_accesses: usize,
    /// `GET /query` latencies a run collects at least.
    pub min_queries: usize,
}

impl Size {
    pub fn full() -> Self {
        Self {
            uni_accesses: 3_000_000,
            window: 50_000,
            mc_accesses: 20_000,
            mc_mixes: 6,
            serve_rows: 5_000,
            serve_real_accesses: 10_000,
            serve_post_accesses: 50_000,
            min_queries: 100,
        }
    }

    /// Seconds-long inputs for the benchmark's own tests.
    pub fn smoke() -> Self {
        Self {
            uni_accesses: 30_000,
            window: 3_000,
            mc_accesses: 2_000,
            mc_mixes: 1,
            serve_rows: 200,
            serve_real_accesses: 1_000,
            serve_post_accesses: 2_000,
            min_queries: 5,
        }
    }

    /// What a traced run probes the other workloads with: smoke size, but
    /// with the full `serve_query` store, since the view build's cost grows
    /// with the square of its row count.
    pub fn probe() -> Self {
        Self {
            serve_rows: Self::full().serve_rows,
            min_queries: 10,
            ..Self::smoke()
        }
    }
}

/// Seconds a probe of another workload runs in a traced run.
const PROBE_SECONDS: f64 = 4.0;

/// Runs one workload; `work` is a working directory the run owns.
///
/// A traced run also measures the layers its workload does not run, through
/// short traced runs of the workloads that do (see [`Size::probe`]), so every
/// per-layer value is a measurement. The workload's own figures win where
/// both exist.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: &Size,
    work: &Path,
) -> Report {
    let mut report = run_one(workload, seed, seconds, traced, size, work);
    if traced {
        for &other in WORKLOADS.iter().filter(|&&other| other != workload) {
            let probe = run_one(
                other,
                seed,
                PROBE_SECONDS,
                true,
                &Size::probe(),
                &work.join(format!("probe-{other}")),
            );
            report.adopt_probe(other, probe);
        }
    }
    report
}

fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: &Size,
    work: &Path,
) -> Report {
    match workload {
        "uni_dspatch_spp" => uni::run(seed, seconds, traced, size),
        "mc_campaign" => mc::run(seed, seconds, traced, size, work),
        "serve_query" => serve::run(seed, seconds, traced, size, work),
        other => panic!("unknown workload '{other}'"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced: traced.ok_or("--trace is required")?,
        smoke,
    })
}

fn write_file(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("output directory can be created");
    }
    std::fs::write(path, text).expect("output file can be written");
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let size = if args.smoke {
        Size::smoke()
    } else {
        Size::full()
    };
    let out = PathBuf::from(".perfbench");
    let work = out.join(format!("work-{}-{}", args.workload, std::process::id()));
    drop(std::fs::remove_dir_all(&work));
    let report = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.traced,
        &size,
        &work,
    );
    drop(std::fs::remove_dir_all(&work));

    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let detail = report.detail(&args.workload, args.seed, args.traced, host_cpus);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.traced)
    );
    write_file(&out.join("results").join(format!("{stem}.json")), &detail);
    if let Some(spans) = &report.spans {
        write_file(&out.join("spans").join(format!("{stem}.json")), spans);
    }
    for (name, ok) in &report.checks {
        if !ok {
            eprintln!("perfbench: output check failed: {name}");
        }
    }
    println!("{detail}");
    println!("{}", report.result_line(args.traced));
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspatch_harness::Json;

    fn catalog(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// Runs a workload at smoke size and asserts the output checks pass and
    /// every metric `BENCHMARK.json` names is present, with its unit, and
    /// finite.
    fn smoke(workload: &str, traced: bool) {
        let work = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench")
            .join(format!("smoke-{workload}-{traced}-{}", std::process::id()));
        let report = run_workload(workload, 7, 0.5, traced, &Size::smoke(), &work);
        drop(std::fs::remove_dir_all(&work));
        let failed: Vec<_> = report.checks.iter().filter(|c| !c.1).collect();
        assert!(report.correct(), "{workload}: failed checks {failed:?}");
        let line = Json::parse(&report.result_line(traced)).expect("result line is JSON");
        let metrics = line.get("metrics").expect("metrics object");
        let expected = catalog(if traced { "per_layer" } else { "end_to_end" });
        assert_eq!(metrics.as_obj().map(<[_]>::len), Some(expected.len()));
        for (name, unit) in expected {
            let metric = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert_eq!(
                metric.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            if !traced {
                assert!(value > 0.0, "{workload}: end-to-end {name} must not be 0");
            } else if matches!(unit.as_str(), "ns" | "us" | "ms") {
                assert!(value != 0.0, "{workload}: time {name} was not measured");
            }
        }
    }

    #[test]
    fn uni_dspatch_spp_smoke() {
        smoke("uni_dspatch_spp", false);
        smoke("uni_dspatch_spp", true);
    }

    #[test]
    fn mc_campaign_smoke() {
        smoke("mc_campaign", false);
        smoke("mc_campaign", true);
    }

    #[test]
    fn serve_query_smoke() {
        smoke("serve_query", false);
        smoke("serve_query", true);
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let e2e: Vec<(String, String)> = report::END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        let layers: Vec<(String, String)> = report::PER_LAYER
            .iter()
            .map(|(n, u, _)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(catalog("end_to_end"), e2e);
        assert_eq!(catalog("per_layer"), layers);
    }
}
