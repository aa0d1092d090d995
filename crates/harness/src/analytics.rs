//! Columnar analytics over the result store: one query engine behind
//! `dspatch-lab query`, `GET /query`, and the perf-snapshot regression
//! gate.
//!
//! A [`ColumnarView`] is loaded once from a [`ResultStore`] (or any row
//! set) and holds **per-field vectors** — identity columns as string/`u64`
//! vectors, metrics as `f64` vectors with `NaN` marking "not applicable"
//! (a speedup without a baseline, a confidence interval on an exact run) —
//! so a query scans columns, never re-parses rows. Rows are sorted
//! canonically at load time, which makes every query's output
//! **byte-stable**: the same store contents produce the same bytes,
//! whatever the on-disk or hash-map order was.
//!
//! The query AST is deliberately small: `filter(field op value)` →
//! `group_by(fields)` → `aggregate(mean/min/max/count/geomean)` over one
//! metric, plus `trend(metric)` which groups by `code_version` (ascending,
//! version-ordered) to expose how a metric moved across releases. Unless
//! `all_versions` is set (or a trend is asked for, which needs every
//! version), rows are first deduplicated to the **newest `code_version`
//! per cell identity** — the flat view answers "where are we now", not
//! "every byte ever written".
//!
//! Aggregations are CI-aware: when every contributing row carries a
//! sampled 95% confidence interval for the metric, the aggregate carries
//! one too (summed in quadrature for means; in relative terms for
//! geomeans). Mixed exact/sampled groups drop the interval rather than
//! fabricate one.

use crate::error::HarnessError;
use crate::json::Json;
use crate::report::Table;
use crate::results::{mean_ipc, ResultRow};
use crate::store::{compare_versions, ResultStore};

/// Metric columns every store-loaded view carries, in column order.
pub const METRICS: &[&str] = &["ipc", "speedup", "coverage", "accuracy", "cycles"];

/// CI companion columns (metric → its 95% confidence interval column).
const CI_COMPANIONS: &[(&str, &str)] = &[
    ("ipc", "ipc_ci95"),
    ("coverage", "coverage_ci95"),
    ("accuracy", "accuracy_ci95"),
];

/// An identity field of a [`ResultRow`], addressable in filters and
/// group-bys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// Campaign name.
    Figure,
    /// Target display name.
    Workload,
    /// Prefetcher display label.
    Prefetcher,
    /// Config display label.
    Config,
    /// Accesses per workload (numeric).
    Scale,
    /// Sampling-plan suffix ("" = exact).
    Sampling,
    /// Crate version that simulated the cell (version-ordered).
    CodeVersion,
    /// Content address.
    Fingerprint,
}

impl Field {
    /// Every addressable field, in canonical column order.
    pub const ALL: &'static [Field] = &[
        Field::Figure,
        Field::Workload,
        Field::Prefetcher,
        Field::Config,
        Field::Scale,
        Field::Sampling,
        Field::CodeVersion,
        Field::Fingerprint,
    ];

    /// The field's lowercase name (the query grammar's spelling).
    pub fn name(self) -> &'static str {
        match self {
            Field::Figure => "figure",
            Field::Workload => "workload",
            Field::Prefetcher => "prefetcher",
            Field::Config => "config",
            Field::Scale => "scale",
            Field::Sampling => "sampling",
            Field::CodeVersion => "code_version",
            Field::Fingerprint => "fingerprint",
        }
    }

    /// Parses a field name.
    pub fn parse(name: &str) -> Option<Field> {
        Field::ALL.iter().copied().find(|f| f.name() == name)
    }

    fn of(self, row: &ResultRow) -> String {
        match self {
            Field::Figure => row.figure.clone(),
            Field::Workload => row.workload.clone(),
            Field::Prefetcher => row.prefetcher.clone(),
            Field::Config => row.config.clone(),
            Field::Scale => row.scale.to_string(),
            Field::Sampling => row.sampling.clone(),
            Field::CodeVersion => row.code_version.clone(),
            Field::Fingerprint => row.fingerprint.clone(),
        }
    }
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Op {
    fn accepts(self, ordering: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        match self {
            Op::Eq => ordering == Equal,
            Op::Ne => ordering != Equal,
            Op::Lt => ordering == Less,
            Op::Le => ordering != Greater,
            Op::Gt => ordering == Greater,
            Op::Ge => ordering != Less,
        }
    }
}

/// One `field op value` predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    /// Field compared.
    pub field: Field,
    /// Comparison operator.
    pub op: Op,
    /// Right-hand literal.
    pub value: String,
}

impl Filter {
    /// Whether a row passes. `scale` compares numerically, `code_version`
    /// by dotted-segment version order, everything else by byte order.
    pub fn matches(&self, row: &ResultRow) -> bool {
        let ordering = match self.field {
            Field::Scale => match self.value.parse::<u64>() {
                Ok(value) => row.scale.cmp(&value),
                Err(_) => return false,
            },
            Field::CodeVersion => compare_versions(&row.code_version, &self.value),
            field => field.of(row).as_str().cmp(self.value.as_str()),
        };
        self.op.accepts(ordering)
    }
}

/// An aggregation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Arithmetic mean (CI summed in quadrature).
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Row count (no metric needed).
    Count,
    /// Geometric mean (CI propagated in relative terms) — the speedup
    /// aggregation of the paper's figures.
    Geomean,
}

impl Agg {
    fn name(self) -> &'static str {
        match self {
            Agg::Mean => "mean",
            Agg::Min => "min",
            Agg::Max => "max",
            Agg::Count => "count",
            Agg::Geomean => "geomean",
        }
    }

    fn parse(name: &str) -> Option<Agg> {
        [Agg::Mean, Agg::Min, Agg::Max, Agg::Count, Agg::Geomean]
            .into_iter()
            .find(|a| a.name() == name)
    }
}

/// A parsed query: filters, grouping, one optional aggregation, optional
/// version trend.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    /// Conjunctive predicates.
    pub filters: Vec<Filter>,
    /// Grouping fields (empty + agg = one global group).
    pub group_by: Vec<Field>,
    /// Aggregation function; `None` renders raw rows.
    pub agg: Option<Agg>,
    /// Metric the aggregation (or trend) runs over.
    pub metric: Option<String>,
    /// Trend mode: group by `code_version` (ascending) as the innermost
    /// group; implies `all_versions`.
    pub trend: bool,
    /// Keep superseded code versions instead of "newest wins".
    pub all_versions: bool,
}

impl Query {
    /// Parses the shared parameter grammar used by `dspatch-lab query` and
    /// `GET /query` — both surfaces decode to `(key, value)` pairs first,
    /// which is what makes their outputs byte-identical:
    ///
    /// * `where=FIELD OP VALUE` (repeatable; ops `=`, `!=`, `<`, `<=`,
    ///   `>`, `>=`, no spaces) — e.g. `where=prefetcher=SPP`
    /// * `FIELD=VALUE` — shorthand for `where=FIELD=VALUE`
    /// * `group_by=FIELD[,FIELD...]`
    /// * `agg=FN:METRIC` (`mean`/`min`/`max`/`geomean`) or `agg=count`
    /// * `trend=METRIC` — per-code-version trajectory of a metric
    /// * `all_versions=1` — keep superseded code versions
    ///
    /// Metrics: `ipc`, `speedup`, `coverage`, `accuracy`, `cycles`.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Spec`] naming the offending parameter —
    /// surfaced as exit 2 by the CLI and HTTP 400 by the server.
    pub fn from_params(params: &[(String, String)]) -> Result<Query, HarnessError> {
        let mut query = Query::default();
        for (key, value) in params {
            match key.as_str() {
                "where" => query.filters.push(parse_filter(value)?),
                "group_by" => {
                    for name in value.split(',') {
                        let field = Field::parse(name.trim()).ok_or_else(|| {
                            HarnessError::spec(format!("group_by: unknown field '{name}'"))
                        })?;
                        if !query.group_by.contains(&field) {
                            query.group_by.push(field);
                        }
                    }
                }
                "agg" => {
                    let (fn_name, metric) = match value.split_once(':') {
                        Some((fn_name, metric)) => (fn_name, Some(metric)),
                        None => (value.as_str(), None),
                    };
                    let agg = Agg::parse(fn_name).ok_or_else(|| {
                        HarnessError::spec(format!(
                            "agg: unknown function '{fn_name}' (want mean/min/max/count/geomean)"
                        ))
                    })?;
                    match (agg, metric) {
                        (Agg::Count, None) => {}
                        (_, Some(metric)) => set_metric(&mut query, metric)?,
                        (_, None) => {
                            return Err(HarnessError::spec(format!(
                                "agg: '{value}' needs a metric (agg={value}:ipc)"
                            )))
                        }
                    }
                    query.agg = Some(agg);
                }
                "trend" => {
                    set_metric(&mut query, value)?;
                    query.trend = true;
                }
                "all_versions" => match value.as_str() {
                    "1" | "true" => query.all_versions = true,
                    "0" | "false" => query.all_versions = false,
                    other => {
                        return Err(HarnessError::spec(format!(
                            "all_versions: want 0/1, got '{other}'"
                        )))
                    }
                },
                field => {
                    let field = Field::parse(field).ok_or_else(|| {
                        HarnessError::spec(format!("unknown query parameter '{key}'"))
                    })?;
                    query.filters.push(Filter {
                        field,
                        op: Op::Eq,
                        value: value.clone(),
                    });
                }
            }
        }
        if query.trend && query.agg.is_none() {
            query.agg = Some(Agg::Mean);
        }
        if matches!(query.agg, Some(Agg::Count)) && query.metric.is_none() {
            query.metric = Some("count".to_owned());
        }
        Ok(query)
    }
}

fn set_metric(query: &mut Query, metric: &str) -> Result<(), HarnessError> {
    if !METRICS.contains(&metric) {
        return Err(HarnessError::spec(format!(
            "unknown metric '{metric}' (want one of {})",
            METRICS.join("/")
        )));
    }
    if let Some(existing) = &query.metric {
        if existing != metric {
            return Err(HarnessError::spec(format!(
                "conflicting metrics '{existing}' and '{metric}': agg and trend must agree"
            )));
        }
    }
    query.metric = Some(metric.to_owned());
    Ok(())
}

fn parse_filter(expr: &str) -> Result<Filter, HarnessError> {
    const OPS: &[(&str, Op)] = &[
        ("!=", Op::Ne),
        ("<=", Op::Le),
        (">=", Op::Ge),
        ("=", Op::Eq),
        ("<", Op::Lt),
        (">", Op::Gt),
    ];
    let mut best: Option<(usize, &str, Op)> = None;
    for &(token, op) in OPS {
        if let Some(pos) = expr.find(token) {
            let better = match best {
                None => true,
                Some((best_pos, best_token, _)) => {
                    pos < best_pos || (pos == best_pos && token.len() > best_token.len())
                }
            };
            if better {
                best = Some((pos, token, op));
            }
        }
    }
    let Some((pos, token, op)) = best else {
        return Err(HarnessError::spec(format!(
            "where: '{expr}' has no operator (want FIELD=VALUE, !=, <, <=, >, >=)"
        )));
    };
    let (name, rest) = expr.split_at(pos);
    let value = &rest[token.len()..];
    let field = Field::parse(name)
        .ok_or_else(|| HarnessError::spec(format!("where: unknown field '{name}'")))?;
    if field == Field::Scale && value.parse::<u64>().is_err() {
        return Err(HarnessError::spec(format!(
            "where: scale compares numerically, got '{value}'"
        )));
    }
    Ok(Filter {
        field,
        op,
        value: value.to_owned(),
    })
}

/// The columnar in-memory view: identity columns plus named metric
/// columns, all parallel vectors indexed by row.
#[derive(Debug, Clone)]
pub struct ColumnarView {
    identity: Vec<(Field, Vec<String>)>,
    scale: Vec<u64>,
    legacy: Vec<bool>,
    metrics: Vec<(String, Vec<f64>)>,
    rows: usize,
}

impl ColumnarView {
    /// Loads a view from the store's rows (sorted canonically, so every
    /// downstream query is byte-stable regardless of index order).
    pub fn from_store(store: &ResultStore) -> Self {
        Self::from_rows(store.rows().cloned().collect())
    }

    /// Builds the view from explicit rows. Rows are sorted canonically;
    /// speedups are computed by joining each row to the `Baseline` row of
    /// the same (workload, config, scale, sampling, code_version).
    pub fn from_rows(mut rows: Vec<ResultRow>) -> Self {
        rows.sort_by_key(canonical_key);
        let baseline_of = |row: &ResultRow| -> Option<usize> {
            if row.is_legacy() || row.prefetcher == "Baseline" {
                return None;
            }
            rows.iter().position(|candidate| {
                candidate.prefetcher == "Baseline"
                    && candidate.workload == row.workload
                    && candidate.config == row.config
                    && candidate.scale == row.scale
                    && candidate.sampling == row.sampling
                    && candidate.code_version == row.code_version
            })
        };
        let speedups: Vec<f64> = rows
            .iter()
            .map(|row| match baseline_of(row) {
                Some(b) if rows[b].result.cores.len() == row.result.cores.len() => {
                    row.result.speedup_over(&rows[b].result)
                }
                _ => f64::NAN,
            })
            .collect();

        let mut view = Self {
            identity: Field::ALL
                .iter()
                .map(|&field| (field, Vec::with_capacity(rows.len())))
                .collect(),
            scale: Vec::with_capacity(rows.len()),
            legacy: Vec::with_capacity(rows.len()),
            metrics: Vec::new(),
            rows: rows.len(),
        };
        let metric = |name: &str| (name.to_owned(), Vec::with_capacity(rows.len()));
        let mut ipc = metric("ipc");
        let mut speedup = metric("speedup");
        let mut coverage = metric("coverage");
        let mut accuracy = metric("accuracy");
        let mut cycles = metric("cycles");
        let mut ipc_ci = metric("ipc_ci95");
        let mut coverage_ci = metric("coverage_ci95");
        let mut accuracy_ci = metric("accuracy_ci95");
        for (index, row) in rows.iter().enumerate() {
            for (field, column) in &mut view.identity {
                column.push(field.of(row));
            }
            view.scale.push(row.scale);
            view.legacy.push(row.is_legacy());
            let accounting = row.result.total_accounting();
            ipc.1.push(mean_ipc(&row.result));
            speedup.1.push(speedups[index]);
            coverage.1.push(nan_if_undefined(accounting.coverage()));
            accuracy.1.push(nan_if_undefined(accounting.accuracy()));
            cycles.1.push(row.result.cycles as f64);
            let sampling = row.result.sampling.as_ref();
            ipc_ci.1.push(sampling.map_or(f64::NAN, |s| s.ipc.ci95));
            coverage_ci
                .1
                .push(sampling.map_or(f64::NAN, |s| s.coverage.ci95));
            accuracy_ci
                .1
                .push(sampling.map_or(f64::NAN, |s| s.accuracy.ci95));
        }
        view.metrics = vec![
            ipc,
            speedup,
            coverage,
            accuracy,
            cycles,
            ipc_ci,
            coverage_ci,
            accuracy_ci,
        ];
        view
    }

    /// Builds a single-metric view from bare `(workload, code_version,
    /// value)` observations — how the perf-snapshot gate loads its two
    /// documents as a two-version trend input.
    pub fn from_named_metric(metric: &str, entries: &[(String, String, f64)]) -> Self {
        let rows = entries.len();
        let mut view = Self {
            identity: Field::ALL
                .iter()
                .map(|&f| (f, vec![String::new(); rows]))
                .collect(),
            scale: vec![0; rows],
            legacy: vec![false; rows],
            metrics: vec![(metric.to_owned(), Vec::with_capacity(rows))],
            rows,
        };
        for (index, (workload, code_version, value)) in entries.iter().enumerate() {
            for (field, column) in &mut view.identity {
                match field {
                    Field::Workload => column[index] = workload.clone(),
                    Field::CodeVersion => column[index] = code_version.clone(),
                    Field::Fingerprint => column[index] = format!("{workload}@{code_version}"),
                    _ => {}
                }
            }
            view.metrics[0].1.push(*value);
        }
        view
    }

    /// Number of rows loaded.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    fn field_column(&self, field: Field) -> &[String] {
        // Field::ALL order is the construction order.
        &self.identity[Field::ALL.iter().position(|&f| f == field).unwrap_or(0)].1
    }

    fn metric_column(&self, name: &str) -> Option<&[f64]> {
        self.metrics
            .iter()
            .find(|(metric, _)| metric == name)
            .map(|(_, column)| column.as_slice())
    }

    fn matches(&self, filter: &Filter, index: usize) -> bool {
        let ordering = match filter.field {
            Field::Scale => match filter.value.parse::<u64>() {
                Ok(value) => self.scale[index].cmp(&value),
                Err(_) => return false,
            },
            Field::CodeVersion => {
                compare_versions(&self.field_column(Field::CodeVersion)[index], &filter.value)
            }
            field => self.field_column(field)[index]
                .as_str()
                .cmp(filter.value.as_str()),
        };
        filter.op.accepts(ordering)
    }

    /// Row indices surviving the query's filters and (unless
    /// `all_versions`/trend) the newest-code-version dedup, in canonical
    /// order.
    fn select(&self, query: &Query) -> Vec<usize> {
        let mut selected: Vec<usize> = (0..self.rows)
            .filter(|&index| query.filters.iter().all(|f| self.matches(f, index)))
            .collect();
        if !query.all_versions && !query.trend {
            selected = self.newest_versions(&selected);
        }
        selected
    }

    /// "Newest code_version wins": keeps, per cell identity, only rows of
    /// that identity's newest version. Legacy rows (identity unknown)
    /// compete only with themselves.
    fn newest_versions(&self, selected: &[usize]) -> Vec<usize> {
        let versions = self.field_column(Field::CodeVersion);
        let identity = |index: usize| -> String {
            if self.legacy[index] {
                format!("legacy|{}", self.field_column(Field::Fingerprint)[index])
            } else {
                format!(
                    "{}|{}|{}|{}|{}",
                    self.field_column(Field::Workload)[index],
                    self.field_column(Field::Prefetcher)[index],
                    self.field_column(Field::Config)[index],
                    self.scale[index],
                    self.field_column(Field::Sampling)[index],
                )
            }
        };
        let mut newest: std::collections::HashMap<String, &str> = std::collections::HashMap::new();
        for &index in selected {
            let key = identity(index);
            let version = versions[index].as_str();
            newest
                .entry(key)
                .and_modify(|best| {
                    if compare_versions(version, best) == std::cmp::Ordering::Greater {
                        *best = version;
                    }
                })
                .or_insert(version);
        }
        selected
            .iter()
            .copied()
            .filter(|&index| newest[&identity(index)] == versions[index])
            .collect()
    }

    /// Runs a query.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Spec`] when the metric is missing for an
    /// aggregation or names a column the view does not carry.
    pub fn run(&self, query: &Query) -> Result<QueryOutput, HarnessError> {
        let selected = self.select(query);
        match query.agg {
            None => Ok(self.render_raw(&selected)),
            Some(agg) => self.render_aggregated(query, agg, &selected),
        }
    }

    /// Raw rows: every identity column (minus fingerprint) plus every
    /// metric column that has at least one defined value.
    fn render_raw(&self, selected: &[usize]) -> QueryOutput {
        let mut columns: Vec<String> = Field::ALL
            .iter()
            .filter(|&&f| f != Field::Fingerprint)
            .map(|f| f.name().to_owned())
            .collect();
        let live_metrics: Vec<&(String, Vec<f64>)> = self
            .metrics
            .iter()
            .filter(|(_, column)| selected.iter().any(|&i| column[i].is_finite()))
            .collect();
        columns.extend(live_metrics.iter().map(|(name, _)| name.clone()));
        let rows = selected
            .iter()
            .map(|&index| {
                let mut row: Vec<Json> = Field::ALL
                    .iter()
                    .filter(|&&f| f != Field::Fingerprint)
                    .map(|&f| match f {
                        Field::Scale => Json::num(self.scale[index] as f64),
                        _ => Json::str(&self.field_column(f)[index]),
                    })
                    .collect();
                row.extend(
                    live_metrics
                        .iter()
                        .map(|(_, column)| json_metric(column[index])),
                );
                row
            })
            .collect();
        QueryOutput { columns, rows }
    }

    fn render_aggregated(
        &self,
        query: &Query,
        agg: Agg,
        selected: &[usize],
    ) -> Result<QueryOutput, HarnessError> {
        // Trend appends code_version as the innermost group.
        let mut group_fields = query.group_by.clone();
        if query.trend && !group_fields.contains(&Field::CodeVersion) {
            group_fields.push(Field::CodeVersion);
        }
        let metric_name = query.metric.as_deref().unwrap_or("count");
        let metric = if agg == Agg::Count && metric_name == "count" {
            None
        } else {
            Some(self.metric_column(metric_name).ok_or_else(|| {
                HarnessError::spec(format!("unknown metric '{metric_name}' for this view"))
            })?)
        };
        let ci = CI_COMPANIONS
            .iter()
            .find(|(name, _)| *name == metric_name)
            .and_then(|(_, companion)| self.metric_column(companion));

        // Group keys in canonical order: group fields compare by value
        // (scale numerically, code_version by version order).
        let mut groups: Vec<(Vec<String>, Vec<usize>)> = Vec::new();
        let mut group_index: std::collections::HashMap<Vec<String>, usize> =
            std::collections::HashMap::new();
        for &index in selected {
            let key: Vec<String> = group_fields
                .iter()
                .map(|&f| self.field_column(f)[index].clone())
                .collect();
            let slot = *group_index.entry(key.clone()).or_insert_with(|| {
                groups.push((key, Vec::new()));
                groups.len() - 1
            });
            groups[slot].1.push(index);
        }
        groups.sort_by(|(a, _), (b, _)| {
            for (position, field) in group_fields.iter().enumerate() {
                let ordering = match field {
                    Field::Scale => {
                        let x = a[position].parse::<u64>().unwrap_or(0);
                        let y = b[position].parse::<u64>().unwrap_or(0);
                        x.cmp(&y)
                    }
                    Field::CodeVersion => compare_versions(&a[position], &b[position]),
                    _ => a[position].cmp(&b[position]),
                };
                if ordering != std::cmp::Ordering::Equal {
                    return ordering;
                }
            }
            std::cmp::Ordering::Equal
        });

        let value_column = match agg {
            Agg::Count => "count".to_owned(),
            _ => format!("{}_{metric_name}", agg.name()),
        };
        let mut columns: Vec<String> = group_fields.iter().map(|f| f.name().to_owned()).collect();
        columns.push(value_column);
        let with_count = agg != Agg::Count;
        if with_count {
            columns.push("count".to_owned());
        }
        // The CI column appears only when some group carries one, so
        // exact-only stores keep a stable column set.
        let mut aggregated: Vec<(Vec<Json>, Option<f64>)> = Vec::new();
        for (key, indices) in &groups {
            let mut row: Vec<Json> = key.iter().map(Json::str).collect();
            let (value, count, interval) = match metric {
                None => (Some(indices.len() as f64), indices.len(), None),
                Some(column) => {
                    let values: Vec<(f64, f64)> = indices
                        .iter()
                        .filter(|&&i| column[i].is_finite())
                        .map(|&i| (column[i], ci.map_or(f64::NAN, |c| c[i])))
                        .collect();
                    let interval = aggregate_ci(agg, &values);
                    (aggregate(agg, &values), values.len(), interval)
                }
            };
            row.push(value.map_or(Json::Null, |v| Json::num(round6(v))));
            if with_count {
                row.push(Json::num(count as f64));
            }
            aggregated.push((row, interval));
        }
        if aggregated.iter().any(|(_, interval)| interval.is_some()) {
            columns.push("ci95".to_owned());
            for (row, interval) in &mut aggregated {
                row.push(interval.map_or(Json::Null, |v| Json::num(round6(v))));
            }
        }
        Ok(QueryOutput {
            columns,
            rows: aggregated.into_iter().map(|(row, _)| row).collect(),
        })
    }
}

/// Canonical row order: identity-major, versions in version order.
fn canonical_key(row: &ResultRow) -> (String, String, String, u64, String, Vec<String>, String) {
    (
        row.figure.clone(),
        row.workload.clone(),
        row.prefetcher.clone(),
        row.scale,
        row.config.clone(),
        // Dotted version segments padded for ordering via the Vec compare.
        row.code_version
            .split('.')
            .map(|segment| format!("{segment:0>12}"))
            .collect(),
        row.fingerprint.clone(),
    )
}

fn nan_if_undefined(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        f64::NAN
    }
}

fn json_metric(value: f64) -> Json {
    if value.is_finite() {
        Json::num(round6(value))
    } else {
        Json::Null
    }
}

fn round6(value: f64) -> f64 {
    crate::json::rounded(value, 1e6)
}

fn aggregate(agg: Agg, values: &[(f64, f64)]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let n = values.len() as f64;
    match agg {
        Agg::Count => Some(n),
        Agg::Mean => Some(values.iter().map(|(v, _)| v).sum::<f64>() / n),
        Agg::Min => values.iter().map(|(v, _)| *v).reduce(f64::min),
        Agg::Max => values.iter().map(|(v, _)| *v).reduce(f64::max),
        Agg::Geomean => Some(crate::runner::geomean(
            &values.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
        )),
    }
}

/// CI of the aggregate, only when **every** contributing row carries one:
/// independent intervals sum in quadrature for a mean, and in relative
/// terms for a geomean. Min/max/count get none.
fn aggregate_ci(agg: Agg, values: &[(f64, f64)]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|(_, ci)| !ci.is_finite()) {
        return None;
    }
    let n = values.len() as f64;
    match agg {
        Agg::Mean => Some(values.iter().map(|(_, ci)| ci * ci).sum::<f64>().sqrt() / n),
        Agg::Geomean => {
            let geomean = aggregate(Agg::Geomean, values)?;
            let relative = values
                .iter()
                .map(|(v, ci)| (ci / v.max(1e-12)).powi(2))
                .sum::<f64>()
                .sqrt()
                / n;
            Some(geomean * relative)
        }
        Agg::Min | Agg::Max | Agg::Count => None,
    }
}

/// A query's result: named columns and typed rows, already rounded —
/// rendering in any format is a pure function of this.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Column names, lowercase.
    pub columns: Vec<String>,
    /// One entry per output row; cells are strings, numbers, or null.
    pub rows: Vec<Vec<Json>>,
}

/// Output encoding of a query result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryFormat {
    /// Aligned ASCII table.
    Table,
    /// One JSON document (`{"columns": [...], "rows": [{...}], "matched": N}`).
    Json,
    /// RFC-4180 CSV.
    Csv,
}

impl QueryFormat {
    /// Parses a format name (the CLI's `--format` vocabulary).
    pub fn parse(name: &str) -> Option<QueryFormat> {
        match name {
            "table" => Some(QueryFormat::Table),
            "json" => Some(QueryFormat::Json),
            "csv" => Some(QueryFormat::Csv),
            _ => None,
        }
    }
}

/// Renders a query result. Both `dspatch-lab query` and `GET /query` call
/// this — their bytes are identical by construction.
pub fn render(output: &QueryOutput, format: QueryFormat) -> String {
    match format {
        QueryFormat::Json => {
            let rows = output.rows.iter().map(|row| {
                Json::Obj(
                    output
                        .columns
                        .iter()
                        .zip(row)
                        .map(|(column, value)| (column.clone(), value.clone()))
                        .collect(),
                )
            });
            Json::obj([
                (
                    "columns",
                    Json::Arr(output.columns.iter().map(Json::str).collect()),
                ),
                ("rows", Json::Arr(rows.collect())),
                ("matched", Json::num(output.rows.len() as f64)),
            ])
            .render()
        }
        QueryFormat::Table | QueryFormat::Csv => {
            let table = to_table(output, matches!(format, QueryFormat::Csv));
            match format {
                QueryFormat::Table => table.render(),
                _ => table.to_csv(),
            }
        }
    }
}

fn to_table(output: &QueryOutput, csv: bool) -> Table {
    let mut table = Table::new("query".to_owned(), output.columns.clone());
    for row in &output.rows {
        table.add_row(
            row.iter()
                .map(|value| match value {
                    Json::Null => {
                        if csv {
                            String::new()
                        } else {
                            "-".to_owned()
                        }
                    }
                    Json::Str(text) => text.clone(),
                    other => other.render_compact(),
                })
                .collect(),
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspatch_sim::stats::{IntervalEstimate, SamplingStats};
    use dspatch_sim::{
        CacheStats, CoreResult, DramStats, PollutionBreakdown, PrefetchAccounting, SimResult,
    };

    fn sim(ipc_milli: u64) -> SimResult {
        SimResult {
            cores: vec![CoreResult {
                workload: "w".to_owned(),
                prefetcher: "p".to_owned(),
                instructions: ipc_milli,
                finish_cycle: 1000,
                l1: CacheStats::default(),
                l2: CacheStats::default(),
                accounting: PrefetchAccounting {
                    l2_demand_accesses: 100,
                    covered: 40,
                    uncovered: 60,
                    prefetches_issued: 50,
                    prefetches_used: 40,
                    prefetches_unused: 10,
                },
            }],
            llc: CacheStats::default(),
            dram: DramStats::default(),
            pollution: PollutionBreakdown::default(),
            cycles: 1000,
            cache_geometry: Vec::new(),
            sampling: None,
        }
    }

    fn sampled(ipc_milli: u64, ci: f64) -> SimResult {
        SimResult {
            sampling: Some(SamplingStats {
                warmup_accesses: 100,
                interval_accesses: 10,
                intervals: 5,
                seed: 0,
                ipc: IntervalEstimate {
                    mean: ipc_milli as f64 / 1000.0,
                    ci95: ci,
                },
                coverage: IntervalEstimate {
                    mean: 0.4,
                    ci95: ci,
                },
                accuracy: IntervalEstimate {
                    mean: 0.8,
                    ci95: ci,
                },
            }),
            ..sim(ipc_milli)
        }
    }

    fn row(workload: &str, prefetcher: &str, version: &str, result: SimResult) -> ResultRow {
        let mut row = ResultRow::new(
            format!("fp|{workload}|{prefetcher}|{version}"),
            "fig".to_owned(),
            workload.to_owned(),
            prefetcher.to_owned(),
            "1T".to_owned(),
            1000,
            String::new(),
            result,
        );
        row.code_version = version.to_owned();
        row
    }

    fn params(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect()
    }

    #[test]
    fn filters_group_and_aggregate_deterministically() {
        let rows = vec![
            row("a", "Baseline", "0.1.0", sim(1000)),
            row("a", "SPP", "0.1.0", sim(1500)),
            row("b", "Baseline", "0.1.0", sim(1000)),
            row("b", "SPP", "0.1.0", sim(2000)),
        ];
        let view = ColumnarView::from_rows(rows.clone());
        let query = Query::from_params(&params(&[
            ("prefetcher", "SPP"),
            ("group_by", "prefetcher"),
            ("agg", "geomean:speedup"),
        ]))
        .expect("parses");
        let output = view.run(&query).expect("runs");
        assert_eq!(
            output.columns,
            vec!["prefetcher", "geomean_speedup", "count"]
        );
        assert_eq!(output.rows.len(), 1);
        let expected = (1.5f64.ln() / 2.0 + 2.0f64.ln() / 2.0).exp();
        assert_eq!(output.rows[0][0], Json::str("SPP"));
        assert_eq!(output.rows[0][1].as_f64().unwrap(), round6(expected));
        assert_eq!(output.rows[0][2].as_f64().unwrap(), 2.0);

        // Determinism: a reversed input row order produces identical bytes.
        let reversed = ColumnarView::from_rows(rows.into_iter().rev().collect());
        assert_eq!(
            render(&reversed.run(&query).expect("runs"), QueryFormat::Json),
            render(&output, QueryFormat::Json)
        );
    }

    #[test]
    fn newest_code_version_wins_unless_asked() {
        let rows = vec![
            row("a", "SPP", "0.0.9", sim(1200)),
            row("a", "SPP", "0.1.0", sim(1500)),
        ];
        let view = ColumnarView::from_rows(rows);
        let flat = view.run(&Query::default()).expect("runs");
        assert_eq!(flat.rows.len(), 1, "superseded version hidden by default");
        let all = view
            .run(&Query {
                all_versions: true,
                ..Query::default()
            })
            .expect("runs");
        assert_eq!(all.rows.len(), 2);
    }

    #[test]
    fn trend_orders_versions_ascending_and_keeps_all() {
        let rows = vec![
            row("a", "SPP", "0.0.9", sim(1200)),
            row("a", "SPP", "0.0.10", sim(1300)),
            row("a", "SPP", "0.1.0", sim(1500)),
        ];
        let view = ColumnarView::from_rows(rows);
        let query = Query::from_params(&params(&[("group_by", "prefetcher"), ("trend", "ipc")]))
            .expect("parses");
        let output = view.run(&query).expect("runs");
        assert_eq!(
            output.columns,
            vec!["prefetcher", "code_version", "mean_ipc", "count"]
        );
        let versions: Vec<String> = output
            .rows
            .iter()
            .map(|row| row[1].as_str().unwrap_or("").to_owned())
            .collect();
        // 0.0.10 between 0.0.9 and 0.1.0: numeric segments, not bytes.
        assert_eq!(versions, vec!["0.0.9", "0.0.10", "0.1.0"]);
        assert_eq!(output.rows[0][2].as_f64().unwrap(), 1.2);
        assert_eq!(output.rows[2][2].as_f64().unwrap(), 1.5);
    }

    #[test]
    fn sampled_groups_carry_cis_mixed_groups_drop_them() {
        let rows = vec![
            row("a", "SPP", "0.1.0", sampled(1500, 0.05)),
            row("b", "SPP", "0.1.0", sampled(1300, 0.03)),
        ];
        let view = ColumnarView::from_rows(rows);
        let query = Query::from_params(&params(&[("group_by", "prefetcher"), ("agg", "mean:ipc")]))
            .expect("parses");
        let output = view.run(&query).expect("runs");
        assert_eq!(
            output.columns,
            vec!["prefetcher", "mean_ipc", "count", "ci95"]
        );
        let expected_ci = (0.05f64 * 0.05 + 0.03 * 0.03).sqrt() / 2.0;
        assert_eq!(output.rows[0][3].as_f64().unwrap(), round6(expected_ci));

        // One exact row in the group: no fabricated interval.
        let mixed = ColumnarView::from_rows(vec![
            row("a", "SPP", "0.1.0", sampled(1500, 0.05)),
            row("b", "SPP", "0.1.0", sim(1300)),
        ]);
        let output = mixed.run(&query).expect("runs");
        assert_eq!(output.columns, vec!["prefetcher", "mean_ipc", "count"]);
    }

    #[test]
    fn where_expressions_parse_ops_and_reject_junk() {
        let query = Query::from_params(&params(&[
            ("where", "scale>=1000"),
            ("where", "prefetcher!=Baseline"),
        ]))
        .expect("parses");
        assert_eq!(query.filters.len(), 2);
        assert_eq!(query.filters[0].op, Op::Ge);
        assert_eq!(query.filters[1].op, Op::Ne);

        for bad in [
            &[("where", "no-operator")][..],
            &[("where", "bogus=1")],
            &[("where", "scale>abc")],
            &[("agg", "median:ipc")],
            &[("agg", "mean")],
            &[("trend", "bogus")],
            &[("nonsense", "1")],
            &[("agg", "mean:ipc"), ("trend", "speedup")],
        ] {
            let err = Query::from_params(&params(bad)).expect_err("must reject");
            assert!(matches!(err, HarnessError::Spec { .. }), "{bad:?}: {err:?}");
        }
    }

    #[test]
    fn count_needs_no_metric_and_raw_output_hides_dead_columns() {
        let view = ColumnarView::from_rows(vec![row("a", "SPP", "0.1.0", sim(1500))]);
        let query = Query::from_params(&params(&[("agg", "count")])).expect("parses");
        let output = view.run(&query).expect("runs");
        assert_eq!(output.columns, vec!["count"]);
        assert_eq!(output.rows[0][0].as_f64().unwrap(), 1.0);

        // Raw: no sampled rows and no baseline → no ci95/speedup columns.
        let raw = view.run(&Query::default()).expect("runs");
        assert!(raw.columns.contains(&"ipc".to_owned()));
        assert!(!raw.columns.contains(&"speedup".to_owned()));
        assert!(!raw.columns.contains(&"ipc_ci95".to_owned()));
    }

    #[test]
    fn named_metric_views_drive_version_trends() {
        let view = ColumnarView::from_named_metric(
            "normalized_throughput",
            &[
                ("four_core".to_owned(), "committed".to_owned(), 1.0),
                ("four_core".to_owned(), "measured".to_owned(), 0.9),
                ("baseline".to_owned(), "committed".to_owned(), 1.0),
                ("baseline".to_owned(), "measured".to_owned(), 1.0),
            ],
        );
        let query = Query {
            group_by: vec![Field::Workload],
            agg: Some(Agg::Mean),
            metric: Some("normalized_throughput".to_owned()),
            trend: true,
            ..Query::default()
        };
        let output = view.run(&query).expect("runs");
        assert_eq!(
            output.columns,
            vec![
                "workload",
                "code_version",
                "mean_normalized_throughput",
                "count"
            ]
        );
        assert_eq!(output.rows.len(), 4);
        // Canonical order: workload-major, then version.
        assert_eq!(output.rows[0][0], Json::str("baseline"));
        assert_eq!(output.rows[2][0], Json::str("four_core"));
    }
}
