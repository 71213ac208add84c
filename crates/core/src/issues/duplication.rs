//! §2.1.7 Duplication.
//!
//! Statistical detection finds exact duplicate rows; the LLM decides
//! whether they are semantically acceptable (coarse-grained logging) or
//! erroneous; cleaning is `SELECT DISTINCT`.
//!
//! The whole table is one detection unit, so the detect phase is a single
//! read-only task; the decide phase reviews and applies as usual.

use crate::error::{CoreError, Result};
use crate::ops::IssueKind;
use crate::state::{DetectCtx, Finding, Outcome, PipelineState};
use cocoon_llm::{parse_dup_verdict, prompts};
use cocoon_profile::duplicate_profile;
use cocoon_sql::Select;

/// Runs duplicate-row review over the whole table.
pub fn run(state: &mut PipelineState<'_>) {
    let degraded =
        |err: &CoreError| format!("duplication review degraded to statistical-only: {err}");
    let outcome = detect(&state.detect_ctx()).unwrap_or_else(|err| Outcome::Note(degraded(&err)));
    state.decide_outcomes(vec![outcome], decide, |_, err| degraded(err));
}

fn detect(ctx: &DetectCtx<'_>) -> Result<Outcome<Finding<()>>> {
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
        column: None,
        evidence,
        reasoning: verdict.reasoning,
        confidence: verdict.confidence,
        plan: (),
    }))
}

fn decide(state: &mut PipelineState<'_>, finding: &Finding<()>) -> Result<()> {
    let kind = IssueKind::Duplication;
    if !state.review_detection(kind, finding, "duplicate removal") {
        return Ok(());
    }
    let mut select = Select::star("input");
    select.distinct = true;
    state.apply(kind, finding, select, finding.reasoning.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use crate::ops::CleaningOp;
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
