//! §2.1.7 Duplication.
//!
//! Statistical detection finds exact duplicate rows; the LLM decides
//! whether they are semantically acceptable (coarse-grained logging) or
//! erroneous; cleaning is `SELECT DISTINCT`.
//!
//! The whole table is one detection unit, so the detect phase is a single
//! read-only task; the decide phase reviews and applies as usual.

use crate::apply::apply_and_count;
use crate::decision::{Decision, DetectionReview};
use crate::ops::{CleaningOp, Confidence, IssueKind};
use crate::state::{DetectCtx, Outcome, PipelineState};
use cocoon_llm::{parse_dup_verdict, prompts};
use cocoon_profile::duplicate_profile;
use cocoon_sql::Select;

struct Finding {
    evidence: String,
    reasoning: String,
    confidence: Option<f64>,
}

/// Runs duplicate-row review over the whole table.
pub fn run(state: &mut PipelineState<'_>) {
    let outcome = detect(&state.detect_ctx());
    state.decide_outcomes(vec![outcome], decide, |_, err| {
        format!("duplication review degraded to statistical-only: {err}")
    });
}

fn detect(ctx: &DetectCtx<'_>) -> Outcome<Finding> {
    match detect_inner(ctx) {
        Ok(outcome) => outcome,
        Err(err) => {
            Outcome::Note(format!("duplication review degraded to statistical-only: {err}"))
        }
    }
}

fn detect_inner(ctx: &DetectCtx<'_>) -> crate::error::Result<Outcome<Finding>> {
    let profile = match ctx.table_profile() {
        Some(entry) => entry.duplicates.clone(),
        None => duplicate_profile(ctx.table),
    };
    if profile.duplicate_rows == 0 {
        return Ok(Outcome::Clean);
    }
    let columns: Vec<String> = ctx.table.schema().names().iter().map(|s| s.to_string()).collect();
    let response =
        ctx.ask(prompts::duplication_review(profile.duplicate_rows, profile.rows, &columns))?;
    let verdict = parse_dup_verdict(&response)?;
    let evidence = format!(
        "{} of {} rows are exact duplicates ({} groups)",
        profile.duplicate_rows, profile.rows, profile.duplicated_groups
    );
    if verdict.acceptable {
        return Ok(Outcome::Note(format!(
            "duplicates kept as semantically acceptable: {}",
            verdict.reasoning
        )));
    }
    Ok(Outcome::Finding(Finding {
        evidence,
        reasoning: verdict.reasoning,
        confidence: verdict.confidence,
    }))
}

fn decide(state: &mut PipelineState<'_>, finding: &Finding) -> crate::error::Result<()> {
    let detection = DetectionReview {
        issue: IssueKind::Duplication,
        column: None,
        statistical_evidence: &finding.evidence,
        llm_reasoning: &finding.reasoning,
    };
    if state.hook.review_detection(&detection) == Decision::Reject {
        state.note("duplicate removal rejected by reviewer".to_string());
        return Ok(());
    }
    let mut select = Select::star("input");
    select.distinct = true;
    let (table, removed) = apply_and_count(&select, &state.table)?;
    state.commit_op(
        table,
        CleaningOp {
            issue: IssueKind::Duplication,
            column: None,
            statistical_evidence: finding.evidence.clone(),
            llm_reasoning: finding.reasoning.clone(),
            sql: select,
            cells_changed: removed,
            confidence: Confidence::self_reported(finding.confidence),
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use cocoon_llm::SimLlm;
    use cocoon_table::Table;

    fn run_on(table: Table) -> (Table, Vec<CleaningOp>, Vec<String>) {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, &llm, &config, &mut hook);
        run(&mut state);
        (state.table, state.ops, state.notes)
    }

    #[test]
    fn entity_duplicates_removed() {
        let rows: Vec<Vec<String>> = vec![
            vec!["1".into(), "a".into()],
            vec!["1".into(), "a".into()],
            vec!["2".into(), "b".into()],
        ];
        let table = Table::from_text_rows(&["id", "name"], &rows).unwrap();
        let (cleaned, ops, _) = run_on(table);
        assert_eq!(cleaned.height(), 2);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].cells_changed, 1);
        assert!(ops[0].rendered_sql().contains("SELECT DISTINCT"));
    }

    #[test]
    fn log_duplicates_kept() {
        let rows: Vec<Vec<String>> =
            vec![vec!["12:00".into(), "42".into()], vec!["12:00".into(), "42".into()]];
        let table = Table::from_text_rows(&["event_time", "reading"], &rows).unwrap();
        let (cleaned, ops, notes) = run_on(table.clone());
        assert_eq!(cleaned, table);
        assert!(ops.is_empty());
        assert!(notes.iter().any(|n| n.contains("acceptable")));
    }

    #[test]
    fn no_duplicates_no_llm_call() {
        use cocoon_llm::{ChatModel, Transcript};
        let rows: Vec<Vec<String>> = vec![vec!["1".into()], vec!["2".into()]];
        let table = Table::from_text_rows(&["id"], &rows).unwrap();
        let llm = Transcript::new(SimLlm::new());
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, &llm, &config, &mut hook);
        run(&mut state);
        let _ = llm.model_name();
        assert_eq!(llm.call_count(), 0);
        assert!(state.ops.is_empty());
    }
}
