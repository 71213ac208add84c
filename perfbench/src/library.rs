//! The library workloads: one closed-loop client cleaning the five catalog
//! tables round-robin through `Cleaner`, over a cache that set-up warmed
//! (`warm-catalog`) or over a new empty cache per clean (`cold-catalog`).

use crate::common::{
    catalog, cell_counts, mix, ms, peak_rss_mb, pooled_f1, repeated_setup, replays, same_run,
    Metric, Outcome,
};
use crate::meter::{Meter, MeterSnapshot, StageProbe, STAGE_KEYS};
use crate::stats::{highest_supported, median, Latencies};
use cocoon_core::{AutoApprove, Cleaner, CleaningRun, RunProgress};
use cocoon_datasets::Dataset;
use cocoon_llm::{CachedLlm, SimLlm};
use cocoon_profile::{profile_table_chunked, DEFAULT_PROFILE_CHUNK_ROWS};
use cocoon_table::{csv, Table};
use std::sync::Arc;
use std::time::{Duration, Instant};
use threadpool::ThreadPool;

/// Seed-derived variants of each catalog table cleaned per round.
const VARIANTS: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// One cache, warmed in set-up on exactly the measured tables.
    Warm,
    /// A new empty cache for every clean.
    Cold,
}

/// Runs a library workload; `trace` adds the traced pass.
pub fn run(mode: CacheMode, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let window = if trace { seconds / 2.0 } else { seconds };
    let (setup, setup_s, setup_reps) = repeated_setup(seed, |s| Setup::build(mode, s));
    let bare = closed_loop(&setup, window, &mut out);

    let n = bare.latencies.len();
    let calls = bare.backend_calls as f64 / n as f64;
    if trace {
        let traced = traced_loop(&setup, &bare, window, &mut out);
        out.per_layer = traced.metrics(bare.latencies.mean_ms());
        out.per_layer.push(Metric::new("llm_calls_per_clean", calls, "count", n));
    }

    let tail_p = highest_supported(n, &[50.0, 90.0, 99.0]).unwrap_or(50.0);
    let p50 = bare.latencies.percentile(50.0);
    let tail = bare.latencies.percentile(tail_p);
    // Throughput of the median round, so a burst of contention on a shared
    // machine moves it only when it spans half the rounds.
    let rounds = bare.round_ms.len();
    let round_ms = median(&bare.round_ms).unwrap_or(f64::INFINITY);
    let cleans_per_s = setup.data.len() as f64 / (round_ms / 1e3);
    let f1 = pooled_f1(&bare.counts);
    let rss = peak_rss_mb();
    out.end_to_end = vec![
        Metric::new("setup_s", setup_s, "s", setup_reps),
        Metric::new("cleans_per_s", cleans_per_s, "1/s", rounds),
        Metric::new("latency_ms_tail", tail, "ms", n),
        Metric::new("cell_f1", f1, "ratio", setup.data.len()),
        Metric::new("peak_rss_mb", rss, "MiB", 1),
    ];
    out.detail = vec![
        Metric::new("cleans_per_s", cleans_per_s, "1/s", rounds),
        Metric::new("clean_ms_p50", p50, "ms", n),
        Metric::new(format!("clean_ms_p{tail_p}"), tail, "ms", n),
        Metric::new("llm_calls_per_clean", calls, "count", n),
        Metric::new("cell_f1", f1, "ratio", setup.data.len()),
    ];
    if tail_p < 90.0 && !trace {
        out.notes.push(format!("only {n} cleans: too few for p90 with 10 samples beyond"));
    }
    out
}

/// The tables and, for `warm-catalog`, the cache set-up warmed on them.
struct Setup {
    data: Vec<Dataset>,
    warm: Option<CachedLlm<SimLlm>>,
}

impl Setup {
    fn build(mode: CacheMode, seed: u64) -> Setup {
        // Several seed-derived variants of each table, so a run's figures
        // average over variants rather than hang on one draw per table.
        let data: Vec<Dataset> = (0..VARIANTS).flat_map(|v| catalog(mix(seed, v))).collect();
        let warm = (mode == CacheMode::Warm).then(|| {
            let cache = CachedLlm::new(SimLlm::new());
            for d in &data {
                // A failed warm-up clean shows as backend calls or a failed
                // clean in the measured loop.
                let _ = Cleaner::new(&cache).clean(&d.dirty);
            }
            cache
        });
        Setup { data, warm }
    }
}

/// What the untraced loop measured.
struct Bare {
    latencies: Latencies,
    /// Summed clean time of each whole round over the tables.
    round_ms: Vec<f64>,
    /// Prompts that reached the backend during measured cleans.
    backend_calls: usize,
    /// The first run of each table: the reference every later run, and the
    /// traced run, must equal.
    reference: Vec<Option<CleaningRun>>,
    counts: Vec<cocoon_eval::EvalCounts>,
}

/// Cleans whole rounds of the catalog until `seconds` of wall time have
/// passed. Only the `clean` call is timed; checks run between cleans.
fn closed_loop(setup: &Setup, seconds: f64, out: &mut Outcome) -> Bare {
    let tables = &setup.data;
    let mut bare = Bare {
        latencies: Latencies::default(),
        round_ms: Vec::new(),
        backend_calls: 0,
        reference: vec![None; tables.len()],
        counts: Vec::new(),
    };
    let mut table_ok = vec![true; tables.len()];
    let mut per_table: Vec<Vec<bool>> = vec![Vec::new(); tables.len()];
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let mut round = Duration::ZERO;
        for (t, d) in tables.iter().enumerate() {
            let cold;
            let model = match &setup.warm {
                Some(warm) => warm,
                None => {
                    cold = CachedLlm::new(SimLlm::new());
                    &cold
                }
            };
            let misses_before = model.misses();
            let cleaner = Cleaner::new(model);
            let t0 = Instant::now();
            let result = std::hint::black_box(cleaner.clean(std::hint::black_box(&d.dirty)));
            let elapsed = t0.elapsed();
            round += elapsed;
            let calls = model.misses() - misses_before;
            bare.backend_calls += calls;
            let ok = match result {
                Ok(run) => {
                    bare.latencies.push(elapsed);
                    match &bare.reference[t] {
                        Some(reference) => same_run(reference, &run),
                        None => {
                            bare.reference[t] = Some(run);
                            true
                        }
                    }
                }
                Err(e) => {
                    out.notes.push(format!("FAILED: clean of {} errored: {e}", d.name));
                    false
                }
            };
            // The replay model: a warmed cache must answer every prompt.
            let replayed = setup.warm.is_none() || calls == 0;
            if !replayed {
                out.notes.push(format!("FAILED: warm clean of {} made {calls} calls", d.name));
            }
            per_table[t].push(ok && replayed);
        }
        bare.round_ms.push(ms(round));
    }
    // Each table's reference run must replay from its SQL; every later run
    // equals it, so one replay covers them all.
    for (t, d) in tables.iter().enumerate() {
        match &bare.reference[t] {
            Some(run) => {
                if !replays(&d.dirty, run) {
                    table_ok[t] = false;
                    out.notes.push(format!("FAILED: SQL script of {} does not replay", d.name));
                }
                bare.counts.push(cell_counts(&d.dirty, &run.table, &d.truth));
            }
            None => table_ok[t] = false,
        }
    }
    for (t, results) in per_table.iter().enumerate() {
        for &ok in results {
            out.check(ok && table_ok[t], || format!("clean of {}", tables[t].name));
        }
    }
    bare
}

/// Per-clean figures of the traced pass, summed.
#[derive(Default)]
pub struct Traced {
    pub cleans: usize,
    /// Profile plus clean wall time.
    pub wall: Duration,
    pub clean: Duration,
    pub profile: Duration,
    pub csv_parse: Duration,
    pub csv_write: Duration,
    pub render: Duration,
    pub replay: Duration,
    pub ops: usize,
    pub stage_total: [Duration; 8],
    pub stage_detect: [Duration; 8],
    pub stage_model: [Duration; 8],
    pub stage_calls: [u64; 8],
    pub model: MeterSnapshot,
    pub cache_hits: usize,
    pub cache_misses: usize,
}

/// One traced clean: the entry profile timed apart, stages observed, the
/// model metered, the SQL rendered and replayed, the CSV round trip timed.
/// Returns the run so callers can hold it to the bare one.
pub fn traced_clean(
    table: &Table,
    cache: &CachedLlm<Meter<SimLlm>>,
    pool: &ThreadPool,
    into: &mut Traced,
) -> Option<(CleaningRun, bool)> {
    let counters = Arc::clone(cache.inner().counters());
    let cleaner = Cleaner::new(cache);
    let (hits, misses) = (cache.hits(), cache.misses());
    let model_before = counters.snapshot();

    let t0 = Instant::now();
    let profile = profile_table_chunked(
        table,
        &cleaner.config().profile_options(),
        pool,
        DEFAULT_PROFILE_CHUNK_ROWS,
    );
    let profiled = t0.elapsed();
    let probe = Arc::new(StageProbe::new(Arc::clone(&counters)));
    let progress = RunProgress::new();
    progress.set_observer(probe.clone());
    let t1 = Instant::now();
    let run = cleaner.clean_seeded(table, &mut AutoApprove, Some(&progress), Some(profile)).ok()?;
    let cleaned = t1.elapsed();
    let wall = t0.elapsed();

    let t = Instant::now();
    let script = std::hint::black_box(run.sql_script());
    into.render += t.elapsed();
    drop(script);
    let t = Instant::now();
    let replay_ok = replays(table, &run);
    into.replay += t.elapsed();
    let dirty_csv = csv::write_str(table);
    let t = Instant::now();
    let parsed = csv::read_str(&dirty_csv);
    into.csv_parse += t.elapsed();
    let t = Instant::now();
    let written = std::hint::black_box(csv::write_str(&run.table));
    into.csv_write += t.elapsed();
    drop((parsed, written));

    let (stages, ops) = probe.finish();
    for (i, stage) in stages.iter().enumerate() {
        into.stage_total[i] += stage.total;
        into.stage_detect[i] += stage.detect;
        into.stage_model[i] += stage.model.busy;
        into.stage_calls[i] += stage.model.prompts;
    }
    let model = counters.snapshot().since(&model_before);
    into.cleans += 1;
    into.wall += wall;
    into.clean += cleaned;
    into.profile += profiled;
    into.ops += ops;
    into.model.busy += model.busy;
    into.model.prompts += model.prompts;
    into.model.batch_calls += model.batch_calls;
    into.model.prompt_bytes += model.prompt_bytes;
    into.model.response_bytes += model.response_bytes;
    into.cache_hits += cache.hits() - hits;
    into.cache_misses += cache.misses() - misses;
    Some((run, replay_ok))
}

impl Traced {
    /// Running totals of wall, entry profile, FD stage and model time.
    fn shares(&self) -> [Duration; 4] {
        let fd = STAGE_KEYS.iter().position(|&k| k == "fd").expect("an FD stage");
        [self.wall, self.profile, self.stage_total[fd], self.model.busy]
    }

    /// Per-clean means of everything measured, plus the tracing overhead
    /// against `untraced_ms`, the bare loop's mean clean time.
    pub fn metrics(&self, untraced_ms: f64) -> Vec<Metric> {
        let n = self.cleans.max(1) as f64;
        let per = |d: Duration| ms(d) / n;
        let c = self.cleans;
        let mut m = vec![
            Metric::new("table.csv_parse_ms", per(self.csv_parse), "ms", c),
            Metric::new("table.csv_write_ms", per(self.csv_write), "ms", c),
            Metric::new("profile.ms", per(self.profile), "ms", c),
        ];
        let mut inside = Duration::ZERO;
        for (i, key) in STAGE_KEYS.iter().enumerate() {
            inside += self.stage_total[i];
            let decide = self.stage_total[i].saturating_sub(self.stage_detect[i]);
            m.push(Metric::new(format!("core.{key}.ms"), per(self.stage_total[i]), "ms", c));
            m.push(Metric::new(
                format!("core.{key}.detect_ms"),
                per(self.stage_detect[i]),
                "ms",
                c,
            ));
            m.push(Metric::new(format!("core.{key}.decide_ms"), per(decide), "ms", c));
            m.push(Metric::new(format!("core.{key}.model_ms"), per(self.stage_model[i]), "ms", c));
            m.push(Metric::new(
                format!("core.{key}.llm_calls"),
                self.stage_calls[i] as f64 / n,
                "count",
                c,
            ));
        }
        let outside = self.clean.saturating_sub(inside);
        let lookups = (self.cache_hits + self.cache_misses).max(1) as f64;
        m.extend([
            Metric::new("core.outside_stages_ms", per(outside), "ms", c),
            Metric::new("core.ops_per_clean", self.ops as f64 / n, "count", c),
            Metric::new("llm.model_ms", per(self.model.busy), "ms", c),
            Metric::new(
                "llm.model_share",
                self.model.busy.as_secs_f64() / self.wall.as_secs_f64().max(1e-9),
                "ratio",
                c,
            ),
            Metric::new("llm.prompts", self.model.prompts as f64 / n, "count", c),
            Metric::new("llm.batch_calls", self.model.batch_calls as f64 / n, "count", c),
            Metric::new("llm.prompt_kb", self.model.prompt_bytes as f64 / 1024.0 / n, "KiB", c),
            Metric::new("llm.response_kb", self.model.response_bytes as f64 / 1024.0 / n, "KiB", c),
            Metric::new("llm.cache_hit_ratio", self.cache_hits as f64 / lookups, "ratio", c),
            Metric::new("sql.render_ms", per(self.render), "ms", c),
            Metric::new("sql.replay_ms", per(self.replay), "ms", c),
            Metric::new("sql.ops", self.ops as f64 / n, "count", c),
            Metric::new(
                "trace.overhead_pct",
                (per(self.wall) / untraced_ms.max(1e-9) - 1.0) * 100.0,
                "%",
                c,
            ),
        ]);
        m
    }
}

/// The traced pass: the same tables and loop as the bare pass, through a
/// metered stack, with every traced run held to the bare run of its table.
fn traced_loop(setup: &Setup, bare: &Bare, seconds: f64, out: &mut Outcome) -> Traced {
    let pool = ThreadPool::from_env();
    let warm = setup.warm.is_some().then(|| {
        let cache = CachedLlm::new(Meter::new(SimLlm::new()));
        for d in &setup.data {
            let _ = Cleaner::new(&cache).clean(&d.dirty);
        }
        cache
    });
    let mut traced = Traced::default();
    // Per table: wall, entry profile, FD stage and model time, summed.
    let mut shares: Vec<(&str, [Duration; 4])> = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        for (t, d) in setup.data.iter().enumerate() {
            let cold;
            let cache = match &warm {
                Some(warm) => warm,
                None => {
                    cold = CachedLlm::new(Meter::new(SimLlm::new()));
                    &cold
                }
            };
            let before = traced.shares();
            let result = traced_clean(&d.dirty, cache, &pool, &mut traced);
            let at = match shares.iter().position(|(name, _)| *name == d.name) {
                Some(at) => at,
                None => {
                    shares.push((d.name, [Duration::ZERO; 4]));
                    shares.len() - 1
                }
            };
            for (sum, (after, before)) in
                shares[at].1.iter_mut().zip(traced.shares().iter().zip(before))
            {
                *sum += *after - before;
            }
            let ok = match (&result, &bare.reference[t]) {
                (Some((run, replay_ok)), Some(reference)) => *replay_ok && same_run(reference, run),
                _ => false,
            };
            out.check(ok, || format!("traced clean of {} differs from the bare clean", d.name));
        }
    }
    for (name, [wall, profile, fd, model]) in &shares {
        let share = |x: &Duration| 100.0 * x.as_secs_f64() / wall.as_secs_f64().max(1e-9);
        out.notes.push(format!(
            "share of {} traced wall: profile {:.1}%, FD stage {:.1}%, model busy {:.1}% \
             (model time overlaps stages and sums over detect threads)",
            name,
            share(profile),
            share(fd),
            share(model)
        ));
    }
    traced
}
