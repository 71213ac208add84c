//! §2.1.2 Pattern Outliers: inconsistent value shapes.
//!
//! Statistical detection groups a column's values by regex-shape digest;
//! the LLM reviews the shapes, proposes meaningful patterns (verified here
//! against the data, the paper's "verify them with SQL"), and supplies
//! regex transformations; cleaning compiles to nested `REGEXP_REPLACE`.
//!
//! Detect phase (concurrent, per text column): shape census → review prompt
//! → pattern verification. Decide phase (sequential): hook review → SQL
//! compile → apply.

use crate::apply::column_rewrite_select;
use crate::error::Result;
use crate::ops::IssueKind;
use crate::state::{DetectCtx, Finding, Outcome, PipelineState};
use cocoon_llm::{parse_pattern_plan, prompts};
use cocoon_pattern::Regex;
use cocoon_profile::pattern_census;
use cocoon_sql::Expr;
use cocoon_table::DataType;

/// The (pattern, replacement) transforms, all verified to compile.
type Transforms = Vec<(String, String)>;

/// Runs pattern-outlier detection and cleaning over every text column.
pub fn run(state: &mut PipelineState<'_>) {
    state.column_stage(|t| t == DataType::Text, detect, decide, "pattern outliers");
}

fn detect(ctx: &DetectCtx<'_>, index: usize, column: &str) -> Result<Outcome<Finding<Transforms>>> {
    // The entry profile (built with exact pattern digests, per
    // `CleanerConfig::profile_options`) already holds this census.
    let census = match ctx.column_profile(index) {
        Some(profile) => profile.patterns.clone(),
        None => pattern_census(ctx.table.column(index)?, true),
    };
    if census.buckets.len() < 2 {
        return Ok(Outcome::Clean);
    }
    let buckets: Vec<(String, usize, Vec<String>)> = census
        .buckets
        .iter()
        .take(50)
        .map(|b| (b.pattern.clone(), b.count, b.examples.clone()))
        .collect();

    let response = ctx.ask(prompts::pattern_review(column, &buckets))?;
    let plan = parse_pattern_plan(&response)?;

    // Verify the proposed patterns against the data ("verify them with
    // SQL"): each must compile, and together they should cover most values.
    let compiled: Vec<Regex> = plan.patterns.iter().filter_map(|p| Regex::new(p).ok()).collect();
    let distinct = ctx.census(index, ctx.config.sample_size);
    let covered =
        distinct.iter().filter(|(v, _)| compiled.iter().any(|re| re.full_match(v))).count();
    let evidence = format!(
        "{} value shapes; {} proposed patterns cover {}/{} distinct values",
        census.buckets.len(),
        compiled.len(),
        covered,
        distinct.len()
    );

    if !plan.inconsistent || plan.transforms.is_empty() {
        return Ok(Outcome::Clean);
    }

    // Validate transforms compile before emitting SQL.
    let valid_transforms: Vec<(String, String)> =
        plan.transforms.iter().filter(|(p, _)| Regex::new(p).is_ok()).cloned().collect();
    if valid_transforms.is_empty() {
        return Ok(Outcome::Clean);
    }
    Ok(Outcome::Finding(Finding {
        column: Some(column.to_string()),
        evidence,
        reasoning: plan.reasoning,
        confidence: plan.confidence,
        plan: valid_transforms,
    }))
}

fn decide(state: &mut PipelineState<'_>, finding: &Finding<Transforms>) -> Result<()> {
    let column = finding.column.as_deref().unwrap_or_default();
    let kind = IssueKind::PatternOutliers;
    if !state.review_detection(kind, finding, format_args!("pattern outliers on {column:?}")) {
        return Ok(());
    }
    // expr = REGEXP_REPLACE(…(REGEXP_REPLACE(col, p1, r1))…, pn, rn)
    let mut expr = Expr::col(column);
    for (pattern, replacement) in &finding.plan {
        expr = Expr::func(
            "REGEXP_REPLACE",
            vec![expr, Expr::lit(pattern.as_str()), Expr::lit(replacement.as_str())],
        );
    }
    let select = column_rewrite_select(&state.table, column, expr);
    state.apply(kind, finding, select, finding.reasoning.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use cocoon_llm::SimLlm;
    use cocoon_table::{Table, Value};

    fn mixed_dates() -> Table {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for _ in 0..20 {
            rows.push(vec!["01/02/2003".into()]);
        }
        for _ in 0..3 {
            rows.push(vec!["2003-04-05".into()]);
        }
        Table::from_text_rows(&["admission_date"], &rows).unwrap()
    }

    #[test]
    fn standardises_minority_date_format() {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(mixed_dates(), &llm, &config, &mut hook);
        run(&mut state);
        assert_eq!(state.ops.len(), 1);
        let op = &state.ops[0];
        assert_eq!(op.issue, IssueKind::PatternOutliers);
        assert_eq!(op.cells_changed, 3);
        // Every ISO date now follows the dominant slash form.
        assert_eq!(state.table.cell(20, 0).unwrap(), &Value::from("04/05/2003"));
        assert!(op.rendered_sql().contains("REGEXP_REPLACE"));
    }

    #[test]
    fn consistent_shapes_untouched() {
        let rows: Vec<Vec<String>> = (0..10).map(|i| vec![format!("0{i}/01/2000")]).collect();
        let table = Table::from_text_rows(&["d"], &rows).unwrap();
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table.clone(), &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
    }

    #[test]
    fn non_date_shape_mix_not_rewritten() {
        // Codes of different lengths are not "inconsistent dates".
        let rows: Vec<Vec<String>> =
            vec![vec!["AB12".into()], vec!["XYZ999".into()], vec!["Q1".into()]];
        let table = Table::from_text_rows(&["code"], &rows).unwrap();
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table.clone(), &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
        assert_eq!(state.table, table);
    }
}
