//! Timing: SQL execution at Movies scale (7390 × 17) — the hot path every
//! cleaning op goes through — plus the full cleaner end to end.
//!
//! `column_rewrite` measures `apply_and_count` on the single-column SELECT
//! shapes the pipeline emits (value map, TRY_CAST, FD repair); throughput
//! is table rows per second. `cleaner_movies` times `Cleaner::clean` on the full
//! Movies benchmark. `cleaner_movies_parallel` compares the detection
//! fan-out at 1 vs 8 worker threads and a warm-`CachedLlm` repeat clean
//! against the cold baseline.

use cocoon_core::{apply_and_count, column_rewrite_select, Cleaner, CleanerConfig, IssueKind};
use cocoon_llm::{CachedLlm, SimLlm};
use cocoon_sql::{Expr, Projection, Select};
use cocoon_table::{DataType, Table, Value};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_column_rewrite(c: &mut Criterion) {
    let dataset = cocoon_datasets::movies::generate();
    let table = &dataset.dirty;
    let mut group = c.benchmark_group("column_rewrite");
    group.sample_size(20);
    group.throughput(Throughput::Elements(table.height() as u64));

    // The string-outlier/DMV shape: CASE language WHEN … THEN … ELSE language.
    let map = Expr::value_map(
        "language",
        &[
            (Value::from("eng"), Value::from("English")),
            (Value::from("Eng"), Value::from("English")),
            (Value::from("N/A"), Value::Null),
        ],
    );
    let select = column_rewrite_select(table, "language", map);
    group.bench_function("movies value_map", |b| {
        b.iter(|| apply_and_count(black_box(&select), black_box(table)).expect("executes"))
    });

    // The column-type shape: TRY_CAST(rating_value AS DOUBLE).
    let cast = Expr::try_cast(Expr::col("rating_value"), DataType::Float);
    let select = column_rewrite_select(table, "rating_value", cast);
    group.bench_function("movies try_cast", |b| {
        b.iter(|| apply_and_count(black_box(&select), black_box(table)).expect("executes"))
    });
    group.finish();

    // The FD shape: CASE WHEN flight = … AND <rhs> = … THEN … ELSE <rhs>,
    // the largest repair of an FD-only Flights clean.
    let (select, table) = largest_fd_repair();
    let mut group = c.benchmark_group("column_rewrite");
    group.sample_size(20);
    group.throughput(Throughput::Elements(table.height() as u64));
    group.bench_function("flights fd_case", |b| {
        b.iter(|| apply_and_count(black_box(&select), black_box(&table)).expect("executes"))
    });
    group.finish();
}

/// The FD repair with the most CASE arms from an FD-only clean of Flights,
/// and the table it applied to: the dirty table with the run's earlier ops
/// replayed in order.
fn largest_fd_repair() -> (Select, Table) {
    let dirty = cocoon_datasets::flights::generate().dirty;
    let config = CleanerConfig::only_issue(IssueKind::FunctionalDependency);
    let run = Cleaner::with_config(SimLlm::new(), config).expect("config").clean(&dirty);
    let arms = |select: &Select| {
        select
            .projections
            .iter()
            .map(|p| match p {
                Projection::Expr { expr: Expr::Case { arms, .. }, .. } => arms.len(),
                _ => 0,
            })
            .sum::<usize>()
    };
    let mut table = dirty;
    let mut largest: Option<(Select, Table)> = None;
    for op in &run.expect("pipeline").ops {
        if largest.as_ref().is_none_or(|(select, _)| arms(&op.sql) > arms(select)) {
            largest = Some((op.sql.clone(), table.clone()));
        }
        let (next, changed) = apply_and_count(&op.sql, &table).expect("replays");
        assert_eq!(changed, op.cells_changed, "replay diverged from the run");
        table = next;
    }
    largest.expect("Flights has FD repairs")
}

fn bench_cleaner_movies(c: &mut Criterion) {
    let dataset = cocoon_datasets::movies::generate();
    let mut group = c.benchmark_group("cleaner_movies");
    group.sample_size(10);
    group.throughput(Throughput::Elements(dataset.dirty.height() as u64));
    group.bench_function("clean Movies", |b| {
        b.iter(|| Cleaner::new(SimLlm::new()).clean(black_box(&dataset.dirty)).expect("pipeline"))
    });
    group.finish();
}

fn bench_cleaner_movies_parallel(c: &mut Criterion) {
    let dataset = cocoon_datasets::movies::generate();
    let mut group = c.benchmark_group("cleaner_movies_parallel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(dataset.dirty.height() as u64));

    for threads in [1usize, 8] {
        let config = CleanerConfig { threads: Some(threads), ..CleanerConfig::default() };
        let cleaner = Cleaner::with_config(SimLlm::new(), config).expect("config");
        group.bench_function(format!("clean Movies threads={threads}"), |b| {
            b.iter(|| cleaner.clean(black_box(&dataset.dirty)).expect("pipeline"))
        });
    }

    // Warm repeat clean: identical prompts replay from the CachedLlm, so
    // the second clean pays only profiling + SQL execution.
    let cleaner = Cleaner::new(CachedLlm::new(SimLlm::new()));
    cleaner.clean(&dataset.dirty).expect("cache warm-up");
    group.bench_function("clean Movies warm cache", |b| {
        b.iter(|| cleaner.clean(black_box(&dataset.dirty)).expect("pipeline"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_column_rewrite,
    bench_cleaner_movies,
    bench_cleaner_movies_parallel
);
criterion_main!(benches);
