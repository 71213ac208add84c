//! Inputs, checks and reporting shared by every workload.

use cocoon_core::CleaningRun;
use cocoon_datasets::Dataset;
use cocoon_eval::{evaluate, Equivalence, EvalCounts};
use cocoon_sql::{execute, parse_select};
use cocoon_table::Table;
use std::time::{Duration, Instant};

/// Set-up runs this many times per benchmark run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// SplitMix64: derives well-spread sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for the benchmark's own choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0xB5)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// The five catalog datasets, each generated from its own sub-seed of
/// `seed`, in catalog order.
pub fn catalog(seed: u64) -> Vec<Dataset> {
    use cocoon_datasets::{beers, flights, hospital, movies, rayyan};
    let generators: [fn(u64) -> Dataset; 5] = [
        hospital::generate_seeded,
        flights::generate_seeded,
        beers::generate_seeded,
        rayyan::generate_seeded,
        movies::generate_seeded,
    ];
    generators.iter().enumerate().map(|(i, generate)| generate(mix(seed, i as u64 + 1))).collect()
}

/// Runs `setup` [`SETUP_REPS`] times, each repetition but the last on its
/// own sub-seed so none is served from an earlier one's memo, and keeps the
/// last result, built from `seed` itself. Returns it with the median time
/// and the number of repetitions.
pub fn repeated_setup<T>(seed: u64, mut setup: impl FnMut(u64) -> T) -> (T, f64, usize) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let rep_seed = if rep + 1 == SETUP_REPS { seed } else { mix(seed, 0x5E7 + rep as u64) };
        let started = Instant::now();
        kept = Some(setup(rep_seed));
        times.push(started.elapsed().as_secs_f64());
    }
    let setup_s = crate::stats::median(&times).expect("at least one repetition");
    (kept.expect("at least one repetition"), setup_s, SETUP_REPS)
}

/// The rows `start..start + len` of `table`.
pub fn window(table: &Table, start: usize, len: usize) -> Table {
    let mut out = table.clone();
    out.retain_rows(|r| r >= start && r < start + len);
    out
}

/// Replays every op's rendered SQL from `dirty`; true when the result is
/// the run's table.
pub fn replays(dirty: &Table, run: &CleaningRun) -> bool {
    let mut table = dirty.clone();
    for op in &run.ops {
        let Ok(select) = parse_select(&op.rendered_sql()) else { return false };
        match execute(&select, &table) {
            Ok(next) => table = next,
            Err(_) => return false,
        }
    }
    table == run.table
}

/// Whether two runs are the same output: table, SQL script, withheld
/// repairs and notes.
pub fn same_run(a: &CleaningRun, b: &CleaningRun) -> bool {
    a.table == b.table
        && a.sql_script() == b.sql_script()
        && a.notes == b.notes
        && a.pending.len() == b.pending.len()
        && a.pending.iter().zip(&b.pending).all(|(x, y)| x.rendered_sql() == y.rendered_sql())
}

/// Lenient cell counts of one cleaned table, for pooling across tables.
pub fn cell_counts(dirty: &Table, cleaned: &Table, truth: &Table) -> EvalCounts {
    evaluate(dirty, cleaned, truth, Equivalence::Lenient).counts
}

/// Pooled (micro-averaged) F1 over several tables' counts.
pub fn pooled_f1(counts: &[EvalCounts]) -> f64 {
    let mut total = EvalCounts::default();
    for c in counts {
        total.errors += c.errors;
        total.changes += c.changes;
        total.correct_repairs += c.correct_repairs;
        total.repaired_errors += c.repaired_errors;
    }
    total.prf().f1
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One reported figure: name, value, unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric { name: name.into(), value, unit, samples }
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (cleans or requests) attempted, checks included.
    pub attempted: usize,
    /// Operations that errored or failed an output check.
    pub failed: usize,
    /// The gated end-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// The same figures under workload-specific names (`clean_ms_p50`,
    /// `req_ms_p90`, `sustained_rps`, ...), printed for reading only.
    pub detail: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
    /// Free-form lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`; names the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }
}
