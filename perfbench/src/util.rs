//! Measurement plumbing shared by the workloads: robust summaries, the span
//! recorder, seeded derivation and process memory.

use std::time::Instant;

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarizing an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return Summary {
            median: sorted[0],
            q1: sorted[0],
            q3: sorted[0],
            n,
        };
    }
    // Exclusive method: position p·(n+1), 1-based, clamped to the ends.
    let at = |p: f64| {
        let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        sorted[lo - 1] + frac * (sorted[hi - 1] - sorted[lo - 1])
    };
    Summary {
        median: at(0.5),
        q1: at(0.25),
        q3: at(0.75),
        n,
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The `p`-th percentile (0–100) by linear interpolation between ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (rank - lo as f64) * (sorted[hi] - sorted[lo])
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// SplitMix64: derives independent sub-seeds from the workload seed, so
/// every generated input (trace phases, mix draws, synthetic rows) follows
/// from the one `--seed` argument.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One recorded span: a call into a layer, with the work count it covered.
struct Span {
    id: usize,
    parent: Option<usize>,
    name: String,
    start_ns: u128,
    end_ns: u128,
    count: u64,
}

/// In-memory span recorder, written out when the run ends. Disabled in
/// untraced runs, where `span` only runs the closure.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed().as_nanos();
        self.spans.push(Span {
            id: self.spans.len(),
            parent,
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span, recording the work count it covered.
    pub fn close(&mut self, id: Option<usize>, count: u64) {
        if let Some(id) = id {
            let now = self.origin.elapsed().as_nanos();
            let span = &mut self.spans[id];
            span.end_ns = now;
            span.count = count;
        }
    }

    /// Runs `work` inside a span and returns its result and wall time in
    /// nanoseconds (measured whether or not tracing is on).
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        count: u64,
        work: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let start = Instant::now();
        let out = work();
        let ns = start.elapsed().as_nanos() as f64;
        self.close(id, count);
        (out, ns)
    }

    /// Self time of every span: its duration minus the part its children
    /// cover, rendered with the spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut child_ns = vec![0u128; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let total = s.end_ns - s.start_ns;
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"count\":{}}}",
                    s.id,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    json_str(&s.name),
                    s.start_ns,
                    s.end_ns,
                    total.saturating_sub(child_ns[s.id]),
                    s.count
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

/// A JSON string literal.
pub fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement (Rust's shortest
/// round-trip rendering). Non-finite values are a benchmark bug.
pub fn json_num(value: f64) -> String {
    assert!(value.is_finite(), "non-finite metric value {value}");
    format!("{value}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(summarize(&[4.0, 1.0, 3.0]).median, 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), 90.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    }
}
