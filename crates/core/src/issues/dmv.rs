//! §2.1.3 Disguised Missing Values.
//!
//! Statistical detection shows the column's values; the LLM identifies
//! not-NULL values that semantically mean "missing" ("N/A", "null", "-");
//! cleaning is `CASE WHEN … THEN NULL`.
//!
//! Detect phase (concurrent, per text column): census → DMV prompt → token
//! filter. Decide phase (sequential): cleaning review → SQL compile → apply.

use crate::apply::value_map_rewrite;
use crate::error::Result;
use crate::ops::IssueKind;
use crate::state::{DetectCtx, Finding, Outcome, PipelineState};
use cocoon_llm::{parse_dmv_verdict, prompts};
use cocoon_table::DataType;

/// token → "" (the Figure 3 convention: empty new value means NULL).
type Mapping = Vec<(String, String)>;

/// Runs DMV detection and cleaning over every text column.
pub fn run(state: &mut PipelineState<'_>) {
    state.column_stage(|t| t == DataType::Text, detect, decide, "DMV detection");
}

fn detect(ctx: &DetectCtx<'_>, index: usize, column: &str) -> Result<Outcome<Finding<Mapping>>> {
    let census = ctx.census(index, ctx.config.sample_size);
    if census.is_empty() {
        return Ok(Outcome::Clean);
    }
    // Numeric share guides whether sentinel values (9999, -1) count as DMVs.
    let total: usize = census.iter().map(|(_, c)| c).sum();
    let numeric: usize =
        census.iter().filter(|(v, _)| v.trim().parse::<f64>().is_ok()).map(|(_, c)| c).sum();
    let numeric_share = if total == 0 { 0.0 } else { numeric as f64 / total as f64 };

    let response = ctx.ask(prompts::dmv_detect(column, &census, numeric_share))?;
    let verdict = parse_dmv_verdict(&response)?;
    let tokens: Vec<String> =
        verdict.tokens.into_iter().filter(|t| census.iter().any(|(v, _)| v == t)).collect();
    if tokens.is_empty() {
        return Ok(Outcome::Clean);
    }

    let mapping: Vec<(String, String)> =
        tokens.iter().map(|t| (t.clone(), String::new())).collect();
    let evidence =
        format!("{} distinct values reviewed; numeric share {numeric_share:.2}", census.len());
    Ok(Outcome::Finding(Finding {
        column: Some(column.to_string()),
        evidence,
        reasoning: verdict.reasoning,
        confidence: verdict.confidence,
        plan: mapping,
    }))
}

fn decide(state: &mut PipelineState<'_>, finding: &Finding<Mapping>) -> Result<()> {
    let column = finding.column.as_deref().unwrap_or_default();
    let kind = IssueKind::DisguisedMissing;
    let Some(select) = state.review_cleaning(
        kind,
        finding,
        &finding.reasoning,
        &finding.plan,
        |table, mapping| value_map_rewrite(table, column, mapping),
        format_args!("DMV cleaning on {column:?}"),
    ) else {
        return Ok(());
    };
    state.apply(kind, finding, select, finding.reasoning.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use cocoon_llm::SimLlm;
    use cocoon_table::{Table, Value};

    fn with_dmvs() -> Table {
        let rows: Vec<Vec<String>> = vec![
            vec!["Austin".into()],
            vec!["N/A".into()],
            vec!["Dallas".into()],
            vec!["null".into()],
            vec!["-".into()],
        ];
        Table::from_text_rows(&["city"], &rows).unwrap()
    }

    #[test]
    fn dmvs_become_null() {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(with_dmvs(), &llm, &config, &mut hook);
        run(&mut state);
        assert_eq!(state.ops.len(), 1);
        assert_eq!(state.ops[0].cells_changed, 3);
        assert_eq!(state.table.cell(1, 0).unwrap(), &Value::Null);
        assert_eq!(state.table.cell(3, 0).unwrap(), &Value::Null);
        assert_eq!(state.table.cell(4, 0).unwrap(), &Value::Null);
        assert_eq!(state.table.cell(0, 0).unwrap(), &Value::from("Austin"));
        assert!(state.ops[0].rendered_sql().contains("THEN NULL"));
    }

    #[test]
    fn sentinels_nulled_only_in_numeric_columns() {
        let rows: Vec<Vec<String>> = vec![
            vec!["10".into()],
            vec!["20".into()],
            vec!["30".into()],
            vec!["40".into()],
            vec!["9999".into()],
        ];
        let table = Table::from_text_rows(&["score"], &rows).unwrap();
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, &llm, &config, &mut hook);
        run(&mut state);
        assert_eq!(state.ops.len(), 1);
        assert_eq!(state.table.cell(4, 0).unwrap(), &Value::Null);
    }

    #[test]
    fn clean_column_untouched() {
        let rows: Vec<Vec<String>> = vec![vec!["Austin".into()], vec!["Dallas".into()]];
        let table = Table::from_text_rows(&["city"], &rows).unwrap();
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table.clone(), &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
        assert_eq!(state.table, table);
    }
}
