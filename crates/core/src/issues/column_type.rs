//! §2.1.4 Column Type.
//!
//! Statistical detection reads the declared catalog type and the parse
//! census; the LLM suggests the semantically right type ("yes"/"no" ⇒
//! BOOLEAN); cleaning is a `CAST` — preceded, for numeric targets with
//! non-numeric spellings ("1 hr. 30 min."), by a semantic value map
//! (Appendix B).
//!
//! Detect phase (concurrent, per text column): type prompt → verdict →
//! numeric-conversion map prefetch. Decide phase (sequential): hook review
//! → cast compile → apply with the destructive-cast guard.

use crate::apply::{apply_and_count, column_rewrite_select, mapping_to_values, restrict_mapping};
use crate::error::Result;
use crate::ops::IssueKind;
use crate::state::{weakest, DetectCtx, Finding, Outcome, PipelineState};
use cocoon_llm::{parse_cleaning_map, parse_type_verdict, prompts};
use cocoon_sql::Expr;
use cocoon_table::{infer_column_type, DataType};

/// The cast a finding proposes.
struct Cast {
    index: usize,
    target: DataType,
    /// Semantic numeric-conversion map ("1 hr. 30 min." → "90"), prefetched
    /// for numeric targets whose census holds non-parsing values.
    conversion_mapping: Vec<(String, String)>,
    conversion_reasoning: String,
}

/// Runs column-type review and casting over every text column.
pub fn run(state: &mut PipelineState<'_>) {
    state.column_stage(|t| t == DataType::Text, detect, decide, "column-type review");
}

fn detect(ctx: &DetectCtx<'_>, index: usize, column: &str) -> Result<Outcome<Finding<Cast>>> {
    let census = ctx.census(index, 50);
    if census.is_empty() {
        return Ok(Outcome::Clean);
    }
    // The entry profile's inference was computed under the same tolerance
    // (`CleanerConfig::profile_options` maps it through).
    let inference = match ctx.column_profile(index) {
        Some(profile) => profile.inference.clone(),
        None => infer_column_type(ctx.table.column(index)?, ctx.config.type_tolerance),
    };
    let declared = ctx.table.schema().field(index)?.data_type();

    let response = ctx.ask(prompts::column_type(
        column,
        declared.sql_name(),
        inference.data_type.sql_name(),
        inference.confidence,
        &census,
    ))?;
    let verdict = parse_type_verdict(&response)?;
    let Some(target) = DataType::from_sql_name(&verdict.type_name) else {
        return Ok(Outcome::Note(format!(
            "column-type review on {column:?} suggested unknown type {:?}",
            verdict.type_name
        )));
    };
    if target == DataType::Text {
        return Ok(Outcome::Clean);
    }
    let evidence = format!(
        "declared {}, inferred {} at {:.0}% confidence",
        declared.sql_name(),
        inference.data_type.sql_name(),
        inference.confidence * 100.0
    );

    // For numeric targets, values that don't parse as numbers first get a
    // semantic numeric-conversion map (Appendix B: "1 hr. 30 min." → 90).
    // The map must cover the column's full distinct census — the 50-value
    // sample shown in the type prompt is not enough to cast every cell.
    let mut conversion_mapping: Vec<(String, String)> = Vec::new();
    let mut conversion_reasoning = String::new();
    let mut confidence = verdict.confidence;
    if target.is_numeric() {
        let full_census = ctx.census(index, ctx.config.sample_size);
        let failing: Vec<(String, usize)> =
            full_census.iter().filter(|(v, _)| v.trim().parse::<f64>().is_err()).cloned().collect();
        if !failing.is_empty() {
            let response = ctx.ask(prompts::numeric_conversion(column, &failing))?;
            let map = parse_cleaning_map(&response)?;
            conversion_mapping = restrict_mapping(&map.mapping, &failing);
            if !conversion_mapping.is_empty() {
                conversion_reasoning = map.explanation;
                confidence = weakest(confidence, map.confidence);
            }
        }
    }
    Ok(Outcome::Finding(Finding {
        column: Some(column.to_string()),
        evidence,
        reasoning: verdict.reasoning,
        confidence,
        plan: Cast { index, target, conversion_mapping, conversion_reasoning },
    }))
}

fn decide(state: &mut PipelineState<'_>, finding: &Finding<Cast>) -> Result<()> {
    let column = finding.column.as_deref().unwrap_or_default();
    let kind = IssueKind::ColumnType;
    if !state.review_detection(kind, finding, format_args!("column-type cast on {column:?}")) {
        return Ok(());
    }
    let Cast { index, target, conversion_mapping, conversion_reasoning } = &finding.plan;
    let inner = if conversion_mapping.is_empty() {
        Expr::col(column)
    } else {
        Expr::value_map(column, &mapping_to_values(conversion_mapping))
    };
    let select = column_rewrite_select(&state.table, column, Expr::try_cast(inner, *target));
    let (table, changed) = apply_and_count(&select, &state.table)?;
    // A cast that empties the column means the suggestion was wrong; the
    // human-in-the-loop would reject it, and so do we.
    let nulls_before = state.table.column(*index)?.null_count();
    let nulls_after = table.column(*index)?.null_count();
    let non_null_before = state.table.height() - nulls_before;
    if non_null_before > 0 {
        let lost = nulls_after.saturating_sub(nulls_before);
        if lost * 2 > non_null_before {
            state.note(format!(
                "cast of {column:?} to {} abandoned: it would null {lost}/{non_null_before} values",
                target.sql_name()
            ));
            return Ok(());
        }
    }
    let reasoning = format!("{} {conversion_reasoning}", finding.reasoning).trim().to_string();
    state.commit(kind, finding, select, (table, changed), reasoning);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use crate::ops::CleaningOp;
    use cocoon_llm::SimLlm;
    use cocoon_table::{Table, Value};

    fn run_on(table: Table) -> (Table, Vec<CleaningOp>) {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, &llm, &config, &mut hook);
        run(&mut state);
        (state.table, state.ops)
    }

    #[test]
    fn yes_no_becomes_boolean() {
        let rows: Vec<Vec<String>> =
            vec![vec!["yes".into()], vec!["no".into()], vec!["yes".into()]];
        let table = Table::from_text_rows(&["EmergencyService"], &rows).unwrap();
        let (cleaned, ops) = run_on(table);
        assert_eq!(ops.len(), 1);
        assert_eq!(cleaned.schema().field(0).unwrap().data_type(), DataType::Bool);
        assert_eq!(cleaned.cell(0, 0).unwrap(), &Value::Bool(true));
        assert_eq!(cleaned.render_cell(0, 0).unwrap(), "True");
        assert!(ops[0].rendered_sql().contains("TRY_CAST"));
    }

    #[test]
    fn durations_convert_then_cast() {
        let rows: Vec<Vec<String>> =
            vec![vec!["90 min".into()], vec!["1 hr. 30 min.".into()], vec!["100 min".into()]];
        let table = Table::from_text_rows(&["duration"], &rows).unwrap();
        let (cleaned, ops) = run_on(table);
        assert_eq!(ops.len(), 1);
        assert_eq!(cleaned.schema().field(0).unwrap().data_type(), DataType::Float);
        // Appendix B: both spellings become the float 90.
        assert_eq!(cleaned.cell(0, 0).unwrap(), &Value::Float(90.0));
        assert_eq!(cleaned.cell(1, 0).unwrap(), &Value::Float(90.0));
        assert_eq!(cleaned.cell(2, 0).unwrap(), &Value::Float(100.0));
    }

    #[test]
    fn integer_column_cast() {
        let rows: Vec<Vec<String>> = (1..=20).map(|i| vec![i.to_string()]).collect();
        let table = Table::from_text_rows(&["count"], &rows).unwrap();
        let (cleaned, ops) = run_on(table);
        assert_eq!(ops.len(), 1);
        assert_eq!(cleaned.schema().field(0).unwrap().data_type(), DataType::Int);
    }

    #[test]
    fn free_text_stays_text() {
        let rows: Vec<Vec<String>> = vec![vec!["alice".into()], vec!["bob".into()]];
        let table = Table::from_text_rows(&["name"], &rows).unwrap();
        let (cleaned, ops) = run_on(table.clone());
        assert!(ops.is_empty());
        assert_eq!(cleaned, table);
    }

    #[test]
    fn zip_codes_stay_text() {
        let rows: Vec<Vec<String>> = vec![vec!["35233".into()], vec!["02139".into()]];
        let table = Table::from_text_rows(&["zip_code"], &rows).unwrap();
        let (cleaned, ops) = run_on(table);
        assert!(ops.is_empty());
        assert_eq!(cleaned.schema().field(0).unwrap().data_type(), DataType::Text);
    }

    #[test]
    fn destructive_cast_abandoned() {
        // A (scripted) model wrongly suggests BIGINT for free text; the
        // cast would null most values, so the pipeline abandons it.
        use cocoon_llm::ScriptedLlm;
        let rows: Vec<Vec<String>> =
            vec![vec!["hello".into()], vec!["world".into()], vec!["7".into()]];
        let table = Table::from_text_rows(&["stuff"], &rows).unwrap();
        let llm = ScriptedLlm::new([
            r#"{"Reasoning": "looks numeric", "Type": "BIGINT"}"#,
            "```yml\nexplanation: >\n  nothing converts\nmapping:\n```\n",
        ]);
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table.clone(), &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
        assert!(state.notes.iter().any(|n| n.contains("abandoned")));
        assert_eq!(state.table, table);
    }
}
