//! Pipeline state and the detect/decide execution model.
//!
//! Every issue stage is split in two:
//!
//! * a **detect** phase — read-only against the table as it stood when the
//!   stage began. Each unit of detection (a column, an FD candidate) runs
//!   as an independent task on the stage's thread pool; tasks profile,
//!   prompt the LLM, and assemble candidate `Finding`s. Results come
//!   back in submission order, so output never depends on worker
//!   scheduling.
//! * a **decide** phase — sequential and ordered. Findings pass through the
//!   [`DecisionHook`] reviews, compile to SQL, and are applied one at a
//!   time; `ops` and `notes` record them in deterministic order.
//!
//! A stage supplies only what is specific to it: its detect body, the
//! compile step from its plan to SQL, and the wording of its notes.
//! [`PipelineState`] owns the rest: the per-column fan-out and its type
//! gate (`column_stage`), degrading errors to notes, the two reviews and
//! their rejection notes (`review_detection`, `review_cleaning`), and
//! applying and committing the repair as a [`CleaningOp`] (`apply`,
//! `commit`).
//!
//! [`PipelineState`] is the mutable half threaded through the decide
//! phases; [`DetectCtx`] is the shared read-only view handed to detection
//! workers.

use crate::apply::apply_and_count;
use crate::config::CleanerConfig;
use crate::decision::{CleaningReview, Decision, DecisionHook, DetectionReview};
use crate::error::{CoreError, Result};
use crate::ops::{CleaningOp, Confidence, IssueKind};
use crate::progress::RunProgress;
use cocoon_llm::responses::parse_repair_verdict;
use cocoon_llm::{prompts, ChatModel, ChatRequest};
use cocoon_profile::{ColumnProfile, TableProfile};
use cocoon_sql::{render_select, Select};
use cocoon_table::{DataType, Table};
use std::fmt;
use std::sync::Arc;
use threadpool::ThreadPool;

/// Read-only view for concurrent detection: the stage-entry table, the
/// (thread-safe) model, and the configuration. Cheap to share by reference
/// across detection workers.
pub struct DetectCtx<'a> {
    /// The table as it stood when the stage began.
    pub table: &'a Table,
    /// The model answering detection prompts.
    pub llm: &'a dyn ChatModel,
    /// Pipeline configuration (thresholds, toggles).
    pub config: &'a CleanerConfig,
    /// The table the run's entry profile was computed on, and the profile.
    entry_profile: Option<&'a (Table, TableProfile)>,
}

impl DetectCtx<'_> {
    /// Sends a prompt and returns the completion text.
    pub fn ask(&self, prompt: String) -> Result<String> {
        Ok(self.llm.complete(&ChatRequest::simple(prompt))?.content)
    }

    /// Sends a batch of prompts through [`ChatModel::complete_batch`] so
    /// batching-capable backends (caches, hosted APIs) see the whole set.
    pub fn ask_batch(&self, prompts: Vec<String>) -> Vec<Result<String>> {
        let requests: Vec<ChatRequest> = prompts.into_iter().map(ChatRequest::simple).collect();
        self.llm
            .complete_batch(&requests)
            .into_iter()
            .map(|r| r.map(|resp| resp.content).map_err(Into::into))
            .collect()
    }

    /// Distinct-value census of a column (rendered text, ordered by
    /// descending frequency), truncated to `limit` values. When
    /// [`CleanerConfig::statistical_context`] is off, counts are erased to 1
    /// — the ablation of the paper's "statistics give the LLM context"
    /// claim.
    pub fn census(&self, column_index: usize, limit: usize) -> Vec<(String, usize)> {
        let column = match self.table.column(column_index) {
            Ok(c) => c,
            Err(_) => return Vec::new(),
        };
        let mut out: Vec<(String, usize)> = column
            .distinct_by_frequency()
            .into_iter()
            .take(limit)
            .map(|(v, c)| (v.render(), if self.config.statistical_context { c } else { 1 }))
            .collect();
        if !self.config.statistical_context {
            // Without statistics the model sees values in an arbitrary but
            // deterministic order rather than frequency-ranked.
            out.sort_by(|a, b| a.0.cmp(&b.0));
        }
        out
    }

    /// The entry profile's statistics for one column, while that column is
    /// unchanged since the run began; `None` means recompute. Columns are
    /// in schema order, so the index is the table's column index.
    pub fn column_profile(&self, index: usize) -> Option<&ColumnProfile> {
        let (profiled, profile) = self.entry_profile?;
        unchanged(profiled, self.table, [index]).then(|| profile.columns.get(index)).flatten()
    }

    /// The whole entry profile, for table-wide facts (duplicate census, FD
    /// candidates), while *every* column is unchanged since the run began;
    /// `None` means recompute.
    pub fn table_profile(&self) -> Option<&TableProfile> {
        let (profiled, profile) = self.entry_profile?;
        let width = profiled.width().max(self.table.width());
        unchanged(profiled, self.table, 0..width).then_some(profile)
    }
}

/// The one staleness rule for derived statistics: a fact computed from
/// `basis` still describes `live` while each of `columns` is the same
/// shared column ([`Arc::ptr_eq`]) under the same field in both tables
/// (an index missing from either counts as changed). Sound because `basis`
/// holds its own handle on each column, so any write to `live` (in place
/// through [`Arc::make_mut`], or by swapping in a new column) gives the
/// column a new identity.
pub(crate) fn unchanged(
    basis: &Table,
    live: &Table,
    columns: impl IntoIterator<Item = usize>,
) -> bool {
    columns.into_iter().all(|i| match (basis.shared_column(i), live.shared_column(i)) {
        (Ok(then), Ok(now)) => {
            Arc::ptr_eq(then, now) && basis.schema().field(i).ok() == live.schema().field(i).ok()
        }
        _ => false,
    })
}

/// What one read-only detection unit concluded, queued for the decide phase.
pub(crate) enum Outcome<F> {
    /// Nothing to report.
    Clean,
    /// No finding, but a note for the run report (degraded step, duplicates
    /// judged acceptable, unknown type suggestion).
    Note(String),
    /// A candidate finding awaiting review and application.
    Finding(F),
}

/// A candidate issue, in the one shape every stage reports: what the
/// detection review shows, the confidence its op will carry, and the
/// stage's own repair `plan` (a value mapping, a target type, bounds, …).
pub(crate) struct Finding<P> {
    /// The column at issue; `None` for table-level issues (duplication).
    pub column: Option<String>,
    /// The statistics that flagged it.
    pub evidence: String,
    /// The model's semantic verdict.
    pub reasoning: String,
    /// Weakest self-reported confidence across the completions behind it,
    /// when any stated one.
    pub confidence: Option<f64>,
    /// What the stage's compile step turns into SQL.
    pub plan: P,
}

/// The weaker of two optional self-reported confidences.
pub(crate) fn weakest(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// State shared by all issue steps while a table is being cleaned.
pub struct PipelineState<'a> {
    /// The table, progressively rewritten by each applied op.
    pub table: Table,
    /// The model consulted by detection and cleaning prompts.
    pub llm: &'a dyn ChatModel,
    /// Pipeline configuration (thresholds, toggles).
    pub config: &'a CleanerConfig,
    /// Human-in-the-loop decision boundary.
    pub hook: &'a mut dyn DecisionHook,
    /// Worker policy for the per-stage detection fan-out.
    pub pool: ThreadPool,
    /// The table as the run began and its statistical profile — computed
    /// chunk-parallel up front (or handed in by a streaming ingester) and
    /// served to detection workers under the [`unchanged`] rule.
    pub(crate) entry_profile: Option<(Table, TableProfile)>,
    /// Applied operations, in order.
    pub ops: Vec<CleaningOp>,
    /// Repairs whose confidence fell below
    /// [`CleanerConfig::confidence_threshold`]: fully compiled but **not**
    /// applied, queued for human review (`/v1/reviews` on the server).
    pub pending: Vec<CleaningOp>,
    /// Narrative notes: rejected FDs, skipped steps, LLM failures.
    pub notes: Vec<String>,
    /// Progress channel of the run, when observed: detect fan-outs report
    /// their wall time here so stage timings can split detect from decide.
    pub progress: Option<&'a RunProgress>,
}

impl<'a> PipelineState<'a> {
    /// Fresh state for one cleaning run over `table`.
    pub fn new(
        table: Table,
        llm: &'a dyn ChatModel,
        config: &'a CleanerConfig,
        hook: &'a mut dyn DecisionHook,
    ) -> Self {
        let pool = match config.threads {
            Some(n) => ThreadPool::new(n),
            None => ThreadPool::from_env(),
        };
        PipelineState {
            table,
            llm,
            config,
            hook,
            pool,
            entry_profile: None,
            ops: Vec::new(),
            pending: Vec::new(),
            notes: Vec::new(),
            progress: None,
        }
    }

    /// The read-only view detection workers receive. Borrows the *current*
    /// table: stages construct it once, before their decide phase mutates
    /// anything, so every detection unit of a stage sees the same snapshot.
    pub fn detect_ctx(&self) -> DetectCtx<'_> {
        let entry_profile = self.entry_profile.as_ref();
        DetectCtx { table: &self.table, llm: self.llm, config: self.config, entry_profile }
    }

    /// Fans `detect` out over `items` on the stage pool and returns the
    /// outcomes in submission order (the determinism contract: outcome `i`
    /// is always `detect(ctx, items[i])`, whatever the thread count).
    pub(crate) fn detect_map<T, R>(
        &self,
        items: Vec<T>,
        detect: impl Fn(&DetectCtx<'_>, T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        let ctx = self.detect_ctx();
        let started = std::time::Instant::now();
        let out = self.pool.map_ordered(items, |item| detect(&ctx, item));
        if let Some(progress) = self.progress {
            progress.add_detect_time(started.elapsed());
        }
        out
    }

    /// Runs a per-column stage: `detect(ctx, index, name)` fans out over
    /// every column whose declared type is `eligible`, then `decide` takes
    /// the findings in column order. An error in either phase degrades
    /// that column to the note `{degraded} on "<column>" degraded to
    /// statistical-only: <error>`.
    pub(crate) fn column_stage<P: Send>(
        &mut self,
        eligible: fn(DataType) -> bool,
        detect: impl Fn(&DetectCtx<'_>, usize, &str) -> Result<Outcome<Finding<P>>> + Sync,
        decide: impl FnMut(&mut Self, &Finding<P>) -> Result<()>,
        degraded: &str,
    ) {
        let note = |column: &str, err: &CoreError| {
            format!("{degraded} on {column:?} degraded to statistical-only: {err}")
        };
        let outcomes = self.detect_map((0..self.table.width()).collect(), |ctx, index| {
            match ctx.table.schema().field(index) {
                Ok(field) if eligible(field.data_type()) => detect(ctx, index, field.name())
                    .unwrap_or_else(|err| Outcome::Note(note(field.name(), &err))),
                _ => Outcome::Clean,
            }
        });
        self.decide_outcomes(outcomes, decide, |finding, err| {
            note(finding.column.as_deref().unwrap_or_default(), err)
        });
    }

    /// The decide phase every stage shares: outcomes are consumed in
    /// detection order, notes pass straight through, findings go to
    /// `decide`, and a decide-phase error degrades the finding to the
    /// stage's note via `degraded_note`.
    pub(crate) fn decide_outcomes<F>(
        &mut self,
        outcomes: Vec<Outcome<F>>,
        mut decide: impl FnMut(&mut Self, &F) -> Result<()>,
        degraded_note: impl Fn(&F, &CoreError) -> String,
    ) {
        for outcome in outcomes {
            match outcome {
                Outcome::Clean => {}
                Outcome::Note(note) => self.note(note),
                Outcome::Finding(finding) => {
                    if let Err(err) = decide(self, &finding) {
                        self.note(degraded_note(&finding, &err));
                    }
                }
            }
        }
    }

    /// Sends a prompt and returns the completion text (decide-phase calls;
    /// detection workers use [`DetectCtx::ask`]).
    pub fn ask(&self, prompt: String) -> Result<String> {
        Ok(self.llm.complete(&ChatRequest::simple(prompt))?.content)
    }

    /// Distinct-value census of a column; see [`DetectCtx::census`].
    pub fn census(&self, column_index: usize, limit: usize) -> Vec<(String, usize)> {
        self.detect_ctx().census(column_index, limit)
    }

    /// Records a note for the run report.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// The detection review of `finding`: whether the reviewer lets it
    /// through. A rejection is noted as "`{what}` rejected by reviewer".
    pub(crate) fn review_detection<P>(
        &mut self,
        issue: IssueKind,
        finding: &Finding<P>,
        what: impl fmt::Display,
    ) -> bool {
        let review = DetectionReview {
            issue,
            column: finding.column.as_deref(),
            statistical_evidence: &finding.evidence,
            llm_reasoning: &finding.reasoning,
        };
        let approved = self.hook.review_detection(&review) != Decision::Reject;
        if !approved {
            self.note(format!("{what} rejected by reviewer"));
        }
        approved
    }

    /// The cleaning review of a mapping repair. `compile` is the stage's
    /// step from a mapping to the repair's `Select` and the pairs that
    /// select applies: the reviewer sees the pairs and SQL compiled from
    /// `proposed`, and the repair is compiled from whichever mapping they
    /// approve or adjust it to. `None` when nothing is left to apply: no
    /// pairs compiled, or the reviewer rejected it (noted as "`{what}`
    /// rejected by reviewer").
    pub(crate) fn review_cleaning<P>(
        &mut self,
        issue: IssueKind,
        finding: &Finding<P>,
        explanation: &str,
        proposed: &[(String, String)],
        compile: impl Fn(&Table, &[(String, String)]) -> (Select, Vec<(String, String)>),
        what: impl fmt::Display,
    ) -> Option<Select> {
        let (select, pairs) = compile(&self.table, proposed);
        if pairs.is_empty() {
            return None;
        }
        let preview = render_select(&select);
        let review = CleaningReview {
            issue,
            column: finding.column.as_deref(),
            llm_explanation: explanation,
            mapping: &pairs,
            sql_preview: &preview,
        };
        match self.hook.review_cleaning(&review) {
            Decision::Approve => Some(select),
            Decision::Reject => {
                self.note(format!("{what} rejected by reviewer"));
                None
            }
            Decision::AdjustMapping(adjusted) => {
                let (select, pairs) = compile(&self.table, &adjusted);
                (!pairs.is_empty()).then_some(select)
            }
        }
    }

    /// Applies `select` to the table and, unless that changed nothing,
    /// [`commit`](Self::commit)s it as `finding`'s op.
    pub(crate) fn apply<P>(
        &mut self,
        issue: IssueKind,
        finding: &Finding<P>,
        select: Select,
        llm_reasoning: String,
    ) -> Result<()> {
        let (table, changed) = apply_and_count(&select, &self.table)?;
        if changed > 0 {
            self.commit(issue, finding, select, (table, changed), llm_reasoning);
        }
        Ok(())
    }

    /// Records `select`, already applied as `(table, cells changed)`, as
    /// `finding`'s op through [`commit_op`](Self::commit_op)'s confidence
    /// policy. For stages that vet the applied table before committing.
    pub(crate) fn commit<P>(
        &mut self,
        issue: IssueKind,
        finding: &Finding<P>,
        select: Select,
        (table, cells_changed): (Table, usize),
        llm_reasoning: String,
    ) {
        let op = CleaningOp {
            issue,
            column: finding.column.clone(),
            statistical_evidence: finding.evidence.clone(),
            llm_reasoning,
            sql: select,
            cells_changed,
            confidence: Confidence::self_reported(finding.confidence),
        };
        self.commit_op(table, op);
    }

    /// Commits a compiled repair through the confidence policy: a
    /// deterministically sampled subset is first re-verified through
    /// [`prompts::repair_verify`] variants (one model batch, so a
    /// coalescing dispatcher sees a single flight) and the agreement
    /// fraction is blended into the op's [`Confidence`].
    /// Repairs scoring at or above [`CleanerConfig::confidence_threshold`]
    /// apply (`table` replaces the working table, the op is recorded);
    /// repairs below are withheld into [`pending`](PipelineState::pending)
    /// with a note, leaving the table untouched.
    ///
    /// Returns whether the repair applied (`false` means withheld).
    ///
    /// Runs in the sequential decide phase, so sampling and re-asks are
    /// identical at any thread count.
    pub fn commit_op(&mut self, table: Table, mut op: CleaningOp) -> bool {
        if sampled_for_verification(&op) {
            let sql_text = render_select(&op.sql);
            let requests: Vec<ChatRequest> = (0..VERIFY_VARIANTS)
                .map(|variant| {
                    ChatRequest::simple(prompts::repair_verify(
                        op.issue.name(),
                        op.column.as_deref(),
                        &op.statistical_evidence,
                        &op.llm_reasoning,
                        &sql_text,
                        variant,
                    ))
                })
                .collect();
            let verdicts: Vec<bool> = self
                .llm
                .complete_batch(&requests)
                .into_iter()
                .filter_map(|r| r.ok())
                .filter_map(|resp| parse_repair_verdict(&resp.content).ok())
                .map(|v| v.agree)
                .collect();
            // All-failed re-asks leave agreement unsampled rather than
            // punishing the repair for a flaky backend.
            if !verdicts.is_empty() {
                let agree = verdicts.iter().filter(|&&a| a).count();
                op.confidence.agreement = Some(agree as f64 / verdicts.len() as f64);
            }
        }
        if op.confidence.score() >= self.config.confidence_threshold {
            self.table = table;
            self.ops.push(op);
            true
        } else {
            self.note(format!(
                "{} repair on {} withheld for review: confidence {} below threshold {:.2}",
                op.issue.name(),
                op.column.as_deref().map(|c| format!("{c:?}")).unwrap_or_else(|| "table".into()),
                op.confidence.describe(),
                self.config.confidence_threshold,
            ));
            self.pending.push(op);
            false
        }
    }
}

/// How many [`prompts::repair_verify`] variants an agreement re-ask sends.
const VERIFY_VARIANTS: usize = 3;

/// One in this many repairs is sampled for cross-variant verification.
const SAMPLE_MODULUS: u64 = 4;

/// Whether a repair is in the ~25% agreement sample: a pure function of the
/// op's identity (issue, column, evidence), so runs are reproducible across
/// machines and thread counts — no RNG anywhere in the pipeline.
fn sampled_for_verification(op: &CleaningOp) -> bool {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(op.issue.name().as_bytes());
    eat(b"\x1f");
    eat(op.column.as_deref().unwrap_or("").as_bytes());
    eat(b"\x1f");
    eat(op.statistical_evidence.as_bytes());
    hash.is_multiple_of(SAMPLE_MODULUS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::AutoApprove;
    use cocoon_llm::SimLlm;

    fn table() -> Table {
        let rows: Vec<Vec<String>> = vec![vec!["a".into()], vec!["a".into()], vec!["b".into()]];
        Table::from_text_rows(&["x"], &rows).unwrap()
    }

    #[test]
    fn census_orders_by_frequency() {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let state = PipelineState::new(table(), &llm, &config, &mut hook);
        let census = state.census(0, 10);
        assert_eq!(census, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
        assert!(state.census(9, 10).is_empty());
    }

    #[test]
    fn census_without_statistics_erases_counts() {
        let llm = SimLlm::new();
        let config = CleanerConfig { statistical_context: false, ..CleanerConfig::default() };
        let mut hook = AutoApprove;
        let state = PipelineState::new(table(), &llm, &config, &mut hook);
        let census = state.census(0, 10);
        assert!(census.iter().all(|(_, c)| *c == 1));
    }

    #[test]
    fn pool_size_follows_config() {
        let llm = SimLlm::new();
        let config = CleanerConfig { threads: Some(3), ..CleanerConfig::default() };
        let mut hook = AutoApprove;
        let state = PipelineState::new(table(), &llm, &config, &mut hook);
        assert_eq!(state.pool.threads(), 3);
    }

    #[test]
    fn detect_map_orders_results_at_any_thread_count() {
        let llm = SimLlm::new();
        let mut hook = AutoApprove;
        for threads in [1usize, 8] {
            let config = CleanerConfig { threads: Some(threads), ..CleanerConfig::default() };
            let state = PipelineState::new(table(), &llm, &config, &mut hook);
            let out = state.detect_map((0..32).collect::<Vec<usize>>(), |_, i| i * 2);
            assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn entry_profile_served_while_its_columns_are_unchanged() {
        use crate::apply::{apply_and_count, column_rewrite_select};
        use crate::ops::{CleaningOp, Confidence, IssueKind};
        use cocoon_sql::{Expr, Select};
        use cocoon_table::Value;
        // An op outside the agreement sample, so its self-report alone
        // decides whether it applies.
        let op = |select: Select, self_report: f64| {
            (0..)
                .map(|i| CleaningOp {
                    issue: IssueKind::StringOutliers,
                    column: Some("lang".into()),
                    statistical_evidence: format!("evidence {i}"),
                    llm_reasoning: String::new(),
                    sql: select.clone(),
                    cells_changed: 1,
                    confidence: Confidence { self_report, agreement: None },
                })
                .find(|op| !super::sampled_for_verification(op))
                .unwrap()
        };
        let served = |state: &PipelineState<'_>| {
            let ctx = state.detect_ctx();
            let columns = [0, 1, 9].map(|i| ctx.column_profile(i).is_some());
            (columns, ctx.table_profile().is_some())
        };
        let llm = SimLlm::new();
        let config = CleanerConfig { confidence_threshold: 0.5, ..CleanerConfig::default() };
        let mut hook = AutoApprove;
        let rows: Vec<Vec<String>> = vec![
            vec!["1".into(), "a".into()],
            vec!["2".into(), "a".into()],
            vec!["3".into(), "b".into()],
        ];
        let mut state = PipelineState::new(
            Table::from_text_rows(&["id", "lang"], &rows).unwrap(),
            &llm,
            &config,
            &mut hook,
        );
        assert_eq!(served(&state), ([false; 3], false));
        let profile = cocoon_profile::profile_table(&state.table, &config.profile_options());
        state.entry_profile = Some((state.table.clone(), profile));
        assert_eq!(served(&state), ([true, true, false], true));

        let rewrite = column_rewrite_select(
            &state.table,
            "lang",
            Expr::value_map("lang", &[(Value::from("b"), Value::from("a"))]),
        );
        let (rewritten, _) = apply_and_count(&rewrite, &state.table).unwrap();
        // A withheld op leaves the table, and so every fact, as it was.
        assert!(!state.commit_op(rewritten.clone(), op(rewrite.clone(), 0.1)));
        assert_eq!(served(&state), ([true, true, false], true));
        // An op rewriting column 1 keeps column 0's profile, but neither
        // column 1's nor the table-wide facts.
        assert!(state.commit_op(rewritten, op(rewrite, 1.0)));
        assert_eq!(served(&state), ([true, false, false], false));
        // Dropping a row rewrites every column: nothing is served.
        let mut filter = Select::star("input");
        filter.where_clause = Some(Expr::eq(Expr::col("id"), Expr::lit("1")));
        let (filtered, _) = apply_and_count(&filter, &state.table).unwrap();
        assert!(state.commit_op(filtered, op(filter, 1.0)));
        assert_eq!(served(&state), ([false; 3], false));
    }

    #[test]
    fn commit_op_applies_or_withholds_by_threshold() {
        use crate::ops::{CleaningOp, Confidence, IssueKind};
        let op_with = |self_report: f64| CleaningOp {
            issue: IssueKind::StringOutliers,
            column: Some("x".into()),
            statistical_evidence: "evidence".into(),
            llm_reasoning: "reasoning".into(),
            sql: cocoon_sql::Select::star("input"),
            cells_changed: 1,
            confidence: Confidence { self_report, agreement: None },
        };
        let llm = SimLlm::new();
        let config = CleanerConfig { confidence_threshold: 0.9, ..CleanerConfig::default() };
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table(), &llm, &config, &mut hook);
        let rewritten = {
            let rows: Vec<Vec<String>> = vec![vec!["z".into()]];
            Table::from_text_rows(&["x"], &rows).unwrap()
        };
        // High self-report applies (agreement re-asks, if sampled, endorse).
        assert!(state.commit_op(rewritten.clone(), op_with(0.95)));
        assert_eq!(state.ops.len(), 1);
        assert_eq!(state.table, rewritten);
        // Low self-report is withheld: table untouched, op queued, noted.
        let before = state.table.clone();
        assert!(!state.commit_op(table(), op_with(0.3)));
        assert_eq!(state.ops.len(), 1);
        assert_eq!(state.pending.len(), 1);
        assert_eq!(state.table, before);
        assert!(state.notes.iter().any(|n| n.contains("withheld for review")));
    }

    #[test]
    fn verification_sampling_is_deterministic() {
        use crate::ops::{CleaningOp, Confidence, IssueKind};
        let op = |evidence: &str| CleaningOp {
            issue: IssueKind::StringOutliers,
            column: Some("x".into()),
            statistical_evidence: evidence.into(),
            llm_reasoning: String::new(),
            sql: cocoon_sql::Select::star("input"),
            cells_changed: 1,
            confidence: Confidence::default(),
        };
        // Pure function of op identity: same op, same answer, ~1/4 sampled.
        let sampled = (0..64)
            .filter(|i| super::sampled_for_verification(&op(&format!("evidence {i}"))))
            .count();
        assert!(sampled > 0 && sampled < 64, "{sampled} of 64 sampled");
        assert_eq!(
            super::sampled_for_verification(&op("evidence 0")),
            super::sampled_for_verification(&op("evidence 0")),
        );
    }

    #[test]
    fn detect_ctx_batch_ask() {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let state = PipelineState::new(table(), &llm, &config, &mut hook);
        let ctx = state.detect_ctx();
        // SimLlm rejects free-form prompts: each slot carries its own error.
        let out = ctx.ask_batch(vec!["p1".into(), "p2".into()]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.is_err()));
    }
}
