//! The Cocoon cleaning pipeline.
//!
//! Figure 1 of the paper: cleaning is decomposed (a) by issue type and (b),
//! within each issue, into statistical detection → semantic detection →
//! semantic cleaning. The order follows the §2.1 note: per-column issues
//! run string outliers → pattern outliers → DMV → column type → numeric
//! outliers (typos must be fixed before patterns can be read, patterns
//! before casts, casts before numeric distributions); whole-table issues
//! run afterwards: functional dependencies → duplication → uniqueness.
//!
//! Stages execute in that fixed order, but inside each stage detection is
//! a concurrent fan-out across columns (the paper's hosted deployment
//! issues per-issue prompts concurrently); decisions and applies stay
//! sequential, so with a prompt-deterministic model a [`CleaningRun`] is
//! byte-identical at any thread count ([`CleanerConfig::threads`] spells
//! out the precondition). See [`crate::state`] for the detect/decide model
//! and [`CleanerConfig::threads`] / `COCOON_THREADS` for the worker policy.

use crate::config::CleanerConfig;
use crate::decision::{AutoApprove, DecisionHook};
use crate::error::Result;
use crate::issues;
use crate::ops::{CleaningOp, IssueKind};
use crate::progress::RunProgress;
use crate::state::PipelineState;
use cocoon_llm::ChatModel;
use cocoon_profile::{profile_table_chunked, TableProfile, DEFAULT_PROFILE_CHUNK_ROWS};
use cocoon_table::Table;

/// The stages of the pipeline, in execution order (Figure 1a).
pub const STAGE_ORDER: [IssueKind; 8] = [
    IssueKind::StringOutliers,
    IssueKind::PatternOutliers,
    IssueKind::DisguisedMissing,
    IssueKind::ColumnType,
    IssueKind::NumericOutliers,
    IssueKind::FunctionalDependency,
    IssueKind::Duplication,
    IssueKind::Uniqueness,
];

/// Runs the stage of `kind` on the state's table.
fn run_stage(kind: IssueKind, state: &mut PipelineState<'_>) {
    match kind {
        IssueKind::StringOutliers => issues::string_outlier::run(state),
        IssueKind::PatternOutliers => issues::pattern_outlier::run(state),
        IssueKind::DisguisedMissing => issues::dmv::run(state),
        IssueKind::ColumnType => issues::column_type::run(state),
        IssueKind::NumericOutliers => issues::numeric_outlier::run(state),
        IssueKind::FunctionalDependency => issues::functional_dependency::run(state),
        IssueKind::Duplication => issues::duplication::run(state),
        IssueKind::Uniqueness => issues::uniqueness::run(state),
    }
}

/// Whether the stage of `kind` reads the run's entry profile.
fn reads_profile(kind: IssueKind) -> bool {
    !matches!(kind, IssueKind::StringOutliers | IssueKind::DisguisedMissing)
}

/// The result of cleaning one table.
#[derive(Debug, Clone)]
pub struct CleaningRun {
    /// The cleaned table.
    pub table: Table,
    /// Applied operations, in order.
    pub ops: Vec<CleaningOp>,
    /// Repairs withheld by the confidence threshold policy
    /// ([`CleanerConfig::confidence_threshold`]): compiled, scored, but not
    /// applied — awaiting human review. Empty at the default threshold 0.0.
    pub pending: Vec<CleaningOp>,
    /// Narrative notes (rejected FDs, degraded steps, reviewer decisions).
    pub notes: Vec<String>,
}

impl CleaningRun {
    /// Total cells changed (including rows dropped, counted as one each).
    pub fn total_changes(&self) -> usize {
        self.ops.iter().map(|op| op.cells_changed).sum()
    }

    /// Ops of one issue kind.
    pub fn ops_for(&self, issue: IssueKind) -> Vec<&CleaningOp> {
        self.ops.iter().filter(|op| op.issue == issue).collect()
    }

    /// The full SQL script: every op's commented SQL, in order — the
    /// paper's final output artifact (Figure 5).
    pub fn sql_script(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            out.push_str(&format!("-- step {} --------------------------------\n", i + 1));
            out.push_str(&op.rendered_sql());
            out.push_str(";\n\n");
        }
        out
    }
}

/// The Cocoon cleaner: an LLM plus a configuration.
///
/// ```
/// use cocoon_core::Cleaner;
/// use cocoon_llm::SimLlm;
/// use cocoon_table::csv;
///
/// let dirty =
///     csv::read_str("id,lang\n1,eng\n2,eng\n3,eng\n4,English\n").unwrap();
/// let run = Cleaner::new(SimLlm::new()).clean(&dirty).unwrap();
/// assert_eq!(run.table.render_cell(3, 1).unwrap(), "eng");
/// ```
pub struct Cleaner<M> {
    llm: M,
    config: CleanerConfig,
}

impl<M: ChatModel> Cleaner<M> {
    /// A cleaner with the paper's default configuration.
    pub fn new(llm: M) -> Self {
        Cleaner { llm, config: CleanerConfig::default() }
    }

    /// A cleaner with a custom configuration.
    pub fn with_config(llm: M, config: CleanerConfig) -> Result<Self> {
        Ok(Cleaner { llm, config: config.validated()? })
    }

    /// The validated configuration this cleaner runs with.
    pub fn config(&self) -> &CleanerConfig {
        &self.config
    }

    /// The underlying model (e.g. to read a transcript).
    pub fn llm(&self) -> &M {
        &self.llm
    }

    /// Cleans a table with every step auto-approved — the paper's benchmark
    /// mode ("we skip \[HIL\] and use the LLM provided ground truth").
    pub fn clean(&self, table: &Table) -> Result<CleaningRun> {
        let mut hook = AutoApprove;
        self.clean_with_hook(table, &mut hook)
    }

    /// Cleans a table, consulting `hook` at every detection and cleaning
    /// decision (the HIL mode of §2.2 / Appendix A).
    pub fn clean_with_hook(
        &self,
        table: &Table,
        hook: &mut dyn DecisionHook,
    ) -> Result<CleaningRun> {
        self.clean_seeded(table, hook, None, None)
    }

    /// Cleans with every step auto-approved, publishing stage-by-stage
    /// [`ProgressSnapshot`](crate::ProgressSnapshot)s to `progress` — the
    /// shape a polling service needs: the cleaning thread owns the run,
    /// observers share the `RunProgress`.
    pub fn clean_with_progress(
        &self,
        table: &Table,
        progress: &RunProgress,
    ) -> Result<CleaningRun> {
        let mut hook = AutoApprove;
        self.clean_seeded(table, &mut hook, Some(progress), None)
    }

    /// The fully general entry point: custom hook, optional progress
    /// observation, and an optional `seed` profile for a table that was
    /// **already profiled** — the streaming-ingest path: `cocoon-server`
    /// accumulates a partial profile while a CSV body is still arriving and
    /// hands the finalised [`TableProfile`] here, so the run skips its
    /// whole-table profiling pass. The other `clean_*` methods are
    /// conveniences over this.
    ///
    /// A seed must describe `table` under this cleaner's
    /// [`CleanerConfig::profile_options`] ([`TableProfile::matches`] is the
    /// check); a stale or mismatched one is discarded and recomputed, with
    /// a note in the run. Because a merged partial profile is bit-identical
    /// to the whole-table pass, the [`CleaningRun`] is byte-identical to
    /// [`clean`](Cleaner::clean) either way.
    pub fn clean_seeded(
        &self,
        table: &Table,
        hook: &mut dyn DecisionHook,
        progress: Option<&RunProgress>,
        seed: Option<TableProfile>,
    ) -> Result<CleaningRun> {
        let stages: Vec<IssueKind> =
            STAGE_ORDER.into_iter().filter(|&kind| self.config.issues.enabled(kind)).collect();
        let mut state = PipelineState::new(table.clone(), &self.llm, &self.config, hook);
        state.progress = progress;
        // Profile the entry table once, chunk-parallel on the stage pool;
        // stages that need these statistics serve them from the profile
        // instead of re-deriving them, for as long as the columns they
        // describe stay unchanged (`state::unchanged`). Skipped when no
        // enabled stage consumes profiles (cheap ablation runs stay cheap).
        if stages.iter().any(|&kind| reads_profile(kind)) {
            let options = self.config.profile_options();
            let profile = match seed {
                Some(profile) if profile.matches(&state.table, &options) => profile,
                seed => {
                    if seed.is_some() {
                        state.note(
                            "supplied profile does not match the table or options; reprofiled",
                        );
                    }
                    profile_table_chunked(
                        &state.table,
                        &options,
                        &state.pool,
                        DEFAULT_PROFILE_CHUNK_ROWS,
                    )
                }
            };
            state.entry_profile = Some((state.table.clone(), profile));
        }
        if let Some(p) = progress {
            p.begin(stages.len());
        }
        for kind in stages {
            if let Some(p) = progress {
                p.start_stage(kind.name());
            }
            run_stage(kind, &mut state);
            if let Some(p) = progress {
                p.finish_stage(state.ops.len());
            }
        }
        if let Some(p) = progress {
            p.finish(state.ops.len());
        }
        Ok(CleaningRun {
            table: state.table,
            ops: state.ops,
            pending: state.pending,
            notes: state.notes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoon_llm::{SimLlm, Transcript};
    use cocoon_table::{csv, DataType, Value};

    /// A small table exercising several issue types at once.
    fn messy() -> Table {
        let mut csv_text = String::from("record_id,lang,admission,EmergencyService,rating\n");
        for i in 0..20 {
            csv_text.push_str(&format!("r{i},eng,01/02/2003,yes,7.5\n"));
        }
        csv_text.push_str("r20,English,2003-04-05,no,8.0\n");
        csv_text.push_str("r21,eng,01/02/2003,N/A,99.0\n");
        csv::read_str(&csv_text).unwrap()
    }

    #[test]
    fn full_pipeline_fixes_multiple_issues() {
        let cleaner = Cleaner::new(SimLlm::new());
        let run = cleaner.clean(&messy()).unwrap();
        let kinds: Vec<IssueKind> = run.ops.iter().map(|o| o.issue).collect();
        assert!(kinds.contains(&IssueKind::StringOutliers), "{kinds:?}");
        assert!(kinds.contains(&IssueKind::PatternOutliers), "{kinds:?}");
        assert!(kinds.contains(&IssueKind::DisguisedMissing), "{kinds:?}");
        assert!(kinds.contains(&IssueKind::ColumnType), "{kinds:?}");
        assert!(kinds.contains(&IssueKind::NumericOutliers), "{kinds:?}");

        // lang standardised.
        assert_eq!(run.table.render_cell(20, 1).unwrap(), "eng");
        // date standardised (pattern step) then cast to DATE (type step):
        // the value parses as the real calendar date either way.
        assert_eq!(run.table.schema().field(2).unwrap().data_type(), DataType::Date);
        assert_eq!(
            run.table.cell(20, 2).unwrap(),
            &Value::Date(cocoon_table::Date::new(2003, 4, 5).unwrap())
        );
        // EmergencyService cast to boolean, DMV nulled.
        assert_eq!(run.table.schema().field(3).unwrap().data_type(), DataType::Bool);
        assert_eq!(run.table.cell(21, 3).unwrap(), &Value::Null);
        // rating outlier nulled.
        assert_eq!(run.table.cell(21, 4).unwrap(), &Value::Null);
    }

    #[test]
    fn ops_render_to_sql_script() {
        let cleaner = Cleaner::new(SimLlm::new());
        let run = cleaner.clean(&messy()).unwrap();
        let script = run.sql_script();
        assert!(script.contains("-- step 1"));
        assert!(script.contains("CASE"));
        assert!(script.contains("TRY_CAST"));
        // Total change accounting is consistent.
        assert_eq!(run.total_changes(), run.ops.iter().map(|o| o.cells_changed).sum::<usize>());
    }

    #[test]
    fn stage_order_matches_paper() {
        assert_eq!(STAGE_ORDER[0], IssueKind::StringOutliers);
        assert_eq!(STAGE_ORDER[3], IssueKind::ColumnType);
        assert_eq!(STAGE_ORDER[7], IssueKind::Uniqueness);
        // `IssueToggles` indexes kinds by declaration order: it must be
        // the stage order.
        assert!(STAGE_ORDER.iter().enumerate().all(|(i, &kind)| kind as usize == i));
    }

    #[test]
    fn toggles_disable_stages() {
        let config = CleanerConfig::only_issue(IssueKind::DisguisedMissing);
        let cleaner = Cleaner::with_config(SimLlm::new(), config).unwrap();
        let run = cleaner.clean(&messy()).unwrap();
        assert!(run.ops.iter().all(|o| o.issue == IssueKind::DisguisedMissing));
    }

    #[test]
    fn clean_table_is_a_fixpoint() {
        let cleaner = Cleaner::new(SimLlm::new());
        let once = cleaner.clean(&messy()).unwrap();
        let twice = cleaner.clean(&once.table).unwrap();
        // Cleaning an already-clean table must not change it further —
        // string/pattern/DMV issues are gone; types are preserved.
        assert_eq!(once.table, twice.table);
    }

    #[test]
    fn transcript_counts_llm_calls() {
        let cleaner = Cleaner::new(Transcript::new(SimLlm::new()));
        let run = cleaner.clean(&messy()).unwrap();
        assert!(cleaner.llm().call_count() > 5);
        assert!(cleaner.llm().total_usage().total() > 100);
        assert!(!run.ops.is_empty());
    }

    #[test]
    fn progress_reports_enabled_stage_count_and_finishes() {
        let cleaner = Cleaner::new(SimLlm::new());
        let progress = RunProgress::new();
        let run = cleaner.clean_with_progress(&messy(), &progress).unwrap();
        let snap = progress.snapshot();
        assert!(snap.finished);
        assert_eq!(snap.total_stages, 8);
        assert_eq!(snap.completed_stages, 8);
        assert_eq!(snap.current_stage, None);
        assert_eq!(snap.ops_applied, run.ops.len());
        // Progress observation is invisible in the run itself.
        let plain = cleaner.clean(&messy()).unwrap();
        assert_eq!(run.table, plain.table);
        assert_eq!(run.sql_script(), plain.sql_script());
    }

    #[test]
    fn stage_observer_times_every_enabled_stage() {
        use crate::progress::{StageObserver, StageTiming};
        use std::sync::{Arc, Mutex};
        struct Collect(Mutex<Vec<StageTiming>>);
        impl StageObserver for Collect {
            fn stage_finished(&self, timing: StageTiming) {
                self.0.lock().unwrap().push(timing);
            }
        }
        let cleaner = Cleaner::new(SimLlm::new());
        let collect = Arc::new(Collect(Mutex::new(Vec::new())));
        let progress = RunProgress::new();
        progress.set_observer(collect.clone());
        let run = cleaner.clean_with_progress(&messy(), &progress).unwrap();
        let events = collect.0.lock().unwrap().clone();
        // One event per enabled stage, in pipeline order, detect ≤ total,
        // and the final cumulative op count matches the run.
        let names: Vec<&str> = events.iter().map(|e| e.stage).collect();
        let expected: Vec<&str> = STAGE_ORDER.iter().map(|k| k.name()).collect();
        assert_eq!(names, expected);
        assert!(events.iter().all(|e| e.detect <= e.total));
        assert_eq!(events.last().unwrap().ops_applied, run.ops.len());
        // Observation stays invisible in the run output.
        let plain = cleaner.clean(&messy()).unwrap();
        assert_eq!(run.table, plain.table);
    }

    #[test]
    fn progress_counts_only_enabled_stages() {
        let config = CleanerConfig::only_issue(IssueKind::DisguisedMissing);
        let cleaner = Cleaner::with_config(SimLlm::new(), config).unwrap();
        let progress = RunProgress::new();
        cleaner.clean_with_progress(&messy(), &progress).unwrap();
        let snap = progress.snapshot();
        assert_eq!((snap.total_stages, snap.completed_stages), (1, 1));
    }

    #[test]
    fn profiled_clean_matches_plain_clean() {
        let cleaner = Cleaner::new(SimLlm::new());
        let table = messy();
        let profile = cocoon_profile::profile_table(&table, &cleaner.config().profile_options());
        let seeded = cleaner.clean_seeded(&table, &mut AutoApprove, None, Some(profile)).unwrap();
        let plain = cleaner.clean(&table).unwrap();
        assert_eq!(seeded.table, plain.table);
        assert_eq!(seeded.sql_script(), plain.sql_script());
        assert_eq!(seeded.notes, plain.notes);
    }

    #[test]
    fn stale_profile_is_recomputed_with_a_note() {
        let cleaner = Cleaner::new(SimLlm::new());
        let table = messy();
        let other = csv::read_str("a\n1\n").unwrap();
        let stale = cocoon_profile::profile_table(&other, &cleaner.config().profile_options());
        let run = cleaner.clean_seeded(&table, &mut AutoApprove, None, Some(stale)).unwrap();
        let plain = cleaner.clean(&table).unwrap();
        assert_eq!(run.table, plain.table);
        assert_eq!(run.sql_script(), plain.sql_script());
        assert!(run.notes.iter().any(|n| n.contains("reprofiled")));
    }

    #[test]
    fn confidence_threshold_withholds_low_confidence_repairs() {
        // Two text columns: a typo (self-report 0.95, applies) and a
        // misplaced concept token (self-report 0.65, withheld at 0.9).
        let mut text = String::from("drink,country\n");
        for _ in 0..50 {
            text.push_str("coffee,USA\n");
        }
        for _ in 0..10 {
            text.push_str("tea,India\n");
        }
        text.push_str("cofffee,Hindi\n");
        let table = csv::read_str(&text).unwrap();

        let strict = CleanerConfig {
            confidence_threshold: 0.9,
            ..CleanerConfig::only_issue(IssueKind::StringOutliers)
        };
        let withheld = Cleaner::with_config(SimLlm::new(), strict).unwrap().clean(&table).unwrap();
        assert_eq!(withheld.ops.len(), 1, "typo repair applies");
        assert_eq!(withheld.pending.len(), 1, "misplaced repair withheld");
        assert_eq!(withheld.pending[0].column.as_deref(), Some("country"));
        assert!(withheld.pending[0].confidence.score() < 0.9);
        // The withheld column is untouched…
        assert_eq!(withheld.table.render_cell(60, 1).unwrap(), "Hindi");
        // …while the applied one is repaired, and the run says why.
        assert_eq!(withheld.table.render_cell(60, 0).unwrap(), "coffee");
        assert!(withheld.notes.iter().any(|n| n.contains("withheld for review")));

        // Accepting the pending repair afterwards reaches the same table as
        // an unconditional (threshold 0.0) run — the review queue only
        // defers work, it never changes it.
        let lenient = CleanerConfig {
            confidence_threshold: 0.0,
            ..CleanerConfig::only_issue(IssueKind::StringOutliers)
        };
        let full = Cleaner::with_config(SimLlm::new(), lenient).unwrap().clean(&table).unwrap();
        assert!(full.pending.is_empty());
        let (accepted, _) =
            crate::apply::apply_and_count(&withheld.pending[0].sql, &withheld.table).unwrap();
        assert_eq!(accepted, full.table);
    }

    #[test]
    fn default_threshold_is_observational() {
        // Threshold 0.0 (the default): every op carries a confidence, none
        // are withheld, and the run behaves exactly as before the policy.
        let run = Cleaner::new(SimLlm::new()).clean(&messy()).unwrap();
        assert!(run.pending.is_empty());
        assert!(!run.ops.is_empty());
        for op in &run.ops {
            let score = op.confidence.score();
            assert!((0.0..=1.0).contains(&score), "{score}");
            assert!(op.rendered_sql().contains("confidence: "), "{}", op.rendered_sql());
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let config = CleanerConfig { fd_min_strength: 7.0, ..CleanerConfig::default() };
        assert!(Cleaner::with_config(SimLlm::new(), config).is_err());
    }
}

/// The staleness rule's differential: serving statistics from the entry
/// profile while their columns are unchanged must be invisible in the
/// output. Each case cleans the same table twice, through
/// [`Cleaner::clean_with_hook`] and through a [`PipelineState`] that never
/// receives an entry profile, so every stage recomputes what it needs.
#[cfg(test)]
mod entry_profile_differential {
    use super::*;
    use cocoon_llm::SimLlm;
    use cocoon_table::csv;
    use proptest::prelude::*;

    fn assert_profile_invisible(table: &Table, config: CleanerConfig) {
        let llm = SimLlm::new();
        let mut hook = AutoApprove;
        let cleaner = Cleaner::with_config(SimLlm::new(), config.clone()).unwrap();
        let profiled = cleaner.clean_with_hook(table, &mut hook).unwrap();
        let mut state = PipelineState::new(table.clone(), &llm, &config, &mut hook);
        for kind in STAGE_ORDER.into_iter().filter(|&kind| config.issues.enabled(kind)) {
            run_stage(kind, &mut state);
        }
        assert_eq!(profiled.table, state.table);
        assert_eq!(profiled.ops, state.ops);
        assert_eq!(profiled.pending, state.pending);
        assert_eq!(profiled.notes, state.notes);
        let unprofiled = CleaningRun {
            table: state.table,
            ops: state.ops,
            pending: state.pending,
            notes: state.notes,
        };
        assert_eq!(profiled.sql_script(), unprofiled.sql_script());
    }

    #[test]
    fn catalog_datasets() {
        for dataset in cocoon_datasets::catalog::all() {
            assert_profile_invisible(&dataset.dirty, CleanerConfig::default());
        }
    }

    /// A generated messy table, as in the workspace's thread-count
    /// differential: a unique id column, a skewed text column with optional
    /// typo variants and a disguised-missing token, and a numeric column
    /// with an optional outlier.
    fn messy_table() -> impl Strategy<Value = Table> {
        let dominant = "[a-d]{3}";
        (dominant, 14usize..24, 0usize..3, prop_oneof![Just(""), Just("N/A"), Just("unknown")])
            .prop_map(|(word, rows, typos, dmv)| {
                let mut text = String::from("record_id,token,rating\n");
                for i in 0..rows {
                    text.push_str(&format!("r{i},{word},7.5\n"));
                }
                for i in 0..typos {
                    let first = word.chars().next().unwrap();
                    text.push_str(&format!("t{i},{first}{word},8.0\n"));
                }
                if !dmv.is_empty() {
                    text.push_str(&format!("d0,{dmv},99.0\n"));
                }
                csv::read_str(&text).expect("generated csv parses")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// At one and at several threads, with and without withheld
        /// repairs (threshold 0.9 sends low-confidence ones to `pending`).
        #[test]
        fn random_messy_tables(
            table in messy_table(),
            threads in prop_oneof![Just(1usize), Just(4usize)],
            threshold in prop_oneof![Just(0.0f64), Just(0.9f64)],
        ) {
            let config = CleanerConfig {
                threads: Some(threads),
                confidence_threshold: threshold,
                ..CleanerConfig::default()
            };
            assert_profile_invisible(&table, config);
        }
    }
}
