//! §2.1.5 Numeric Outliers.
//!
//! Statistical detection captures min/max (and quartiles); the LLM reviews
//! the acceptable range semantically; cleaning thresholds with a
//! `CASE WHEN` that nulls values outside the range.
//!
//! Runs after the column-type step (§2.1 ordering note: "Only when the
//! column is cast … can we show the distribution for numeric outliers").
//! Detect phase (concurrent, per numeric column): profile → range prompt →
//! offender count. Decide phase (sequential): hook review → SQL → apply.

use crate::apply::column_rewrite_select;
use crate::error::Result;
use crate::ops::IssueKind;
use crate::state::{DetectCtx, Finding, Outcome, PipelineState};
use cocoon_llm::{parse_range_verdict, prompts};
use cocoon_profile::numeric_profile;
use cocoon_sql::{BinaryOp, Expr};

/// The accepted range `(low, high)`; at least one bound is set.
type Bounds = (Option<f64>, Option<f64>);

/// Runs numeric-outlier review over every numeric column.
pub fn run(state: &mut PipelineState<'_>) {
    state.column_stage(|t| t.is_numeric(), detect, decide, "numeric outliers");
}

fn detect(ctx: &DetectCtx<'_>, index: usize, column: &str) -> Result<Outcome<Finding<Bounds>>> {
    let numeric = match ctx.column_profile(index) {
        Some(profile) => profile.numeric.clone(),
        None => numeric_profile(ctx.table.column(index)?),
    };
    let Some(profile) = numeric else {
        return Ok(Outcome::Clean);
    };
    let response = ctx.ask(prompts::numeric_range(
        column,
        profile.stats.min,
        profile.stats.max,
        profile.stats.q1,
        profile.stats.q3,
    ))?;
    let verdict = parse_range_verdict(&response)?;
    let (low, high) = (verdict.low, verdict.high);
    if low.is_none() && high.is_none() {
        return Ok(Outcome::Clean);
    }

    // Count offenders before committing to an op.
    let offenders = ctx
        .table
        .column(index)?
        .non_null()
        .filter_map(|v| v.as_f64())
        .filter(|x| low.is_some_and(|l| *x < l) || high.is_some_and(|h| *x > h))
        .count();
    if offenders == 0 {
        return Ok(Outcome::Clean);
    }
    let evidence = format!(
        "observed range [{}, {}]; {} values outside accepted [{}, {}]",
        profile.stats.min,
        profile.stats.max,
        offenders,
        low.map(|v| v.to_string()).unwrap_or_else(|| "-∞".into()),
        high.map(|v| v.to_string()).unwrap_or_else(|| "+∞".into()),
    );
    Ok(Outcome::Finding(Finding {
        column: Some(column.to_string()),
        evidence,
        reasoning: verdict.reasoning,
        confidence: verdict.confidence,
        plan: (low, high),
    }))
}

fn decide(state: &mut PipelineState<'_>, finding: &Finding<Bounds>) -> Result<()> {
    let column = finding.column.as_deref().unwrap_or_default();
    let kind = IssueKind::NumericOutliers;
    if !state.review_detection(kind, finding, format_args!("numeric outliers on {column:?}")) {
        return Ok(());
    }
    // CASE WHEN col < low OR col > high THEN NULL ELSE col END
    let (low, high) = finding.plan;
    let below = low.map(|l| Expr::binary(BinaryOp::Lt, Expr::col(column), Expr::lit(l)));
    let above = high.map(|h| Expr::binary(BinaryOp::Gt, Expr::col(column), Expr::lit(h)));
    let condition = match (below, above) {
        (Some(below), Some(above)) => Expr::or(below, above),
        (bound, other) => bound.or(other).expect("at least one bound"),
    };
    let expr = Expr::Case {
        operand: None,
        arms: vec![(condition, Expr::null())],
        otherwise: Some(Box::new(Expr::col(column))),
    };
    let select = column_rewrite_select(&state.table, column, expr);
    state.apply(kind, finding, select, finding.reasoning.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use crate::ops::CleaningOp;
    use cocoon_llm::SimLlm;
    use cocoon_table::{DataType, Table, Value};

    fn numeric_table(name: &str, values: &[f64]) -> Table {
        let rows: Vec<Vec<String>> = values.iter().map(|v| vec![v.to_string()]).collect();
        let mut t = Table::from_text_rows(&[name], &rows).unwrap();
        t.set_column_type(0, DataType::Float).unwrap();
        t.column_mut(0).unwrap().try_cast_all(DataType::Float);
        t
    }

    fn run_on(table: Table) -> (Table, Vec<CleaningOp>) {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, &llm, &config, &mut hook);
        run(&mut state);
        (state.table, state.ops)
    }

    #[test]
    fn rating_outlier_nulled_by_domain_knowledge() {
        // imdb-style rating column: 99 is impossible.
        let (cleaned, ops) = run_on(numeric_table("rating", &[7.5, 8.0, 6.5, 99.0, 5.0]));
        assert_eq!(ops.len(), 1);
        assert_eq!(cleaned.cell(3, 0).unwrap(), &Value::Null);
        assert_eq!(cleaned.cell(0, 0).unwrap(), &Value::Float(7.5));
        assert!(ops[0].rendered_sql().contains("THEN NULL"));
    }

    #[test]
    fn far_out_statistical_outlier_nulled_without_domain_cue() {
        let mut values: Vec<f64> = (1..=50).map(f64::from).collect();
        values.push(1_000_000.0);
        let (cleaned, ops) = run_on(numeric_table("mystery", &values));
        assert_eq!(ops.len(), 1);
        assert_eq!(cleaned.cell(50, 0).unwrap(), &Value::Null);
    }

    #[test]
    fn in_range_column_untouched() {
        let (cleaned, ops) = run_on(numeric_table("rating", &[7.5, 8.0, 6.5]));
        assert!(ops.is_empty());
        assert_eq!(cleaned.cell(0, 0).unwrap(), &Value::Float(7.5));
    }

    #[test]
    fn text_columns_skipped() {
        let rows: Vec<Vec<String>> = vec![vec!["a".into()]];
        let table = Table::from_text_rows(&["x"], &rows).unwrap();
        let (_, ops) = run_on(table);
        assert!(ops.is_empty());
    }
}
