//! §2.1.1 String Outliers: typos and inconsistent representations.
//!
//! Statistical detection samples the most frequent distinct values (default
//! 1000); semantic detection is the Figure 2 prompt; semantic cleaning is
//! the Figure 3 prompt, sent as one batch per column; the repair compiles to
//! a `CASE WHEN` value map.
//!
//! Detect phase (concurrent, per text column): census → detect prompt →
//! cleaning-map prompts, prefetched via
//! [`cocoon_llm::ChatModel::complete_batch`] so a batching backend amortises
//! them. Decide phase (sequential): hook reviews → SQL compile → apply.

use crate::apply::{restrict_mapping, value_map_rewrite};
use crate::error::Result;
use crate::ops::IssueKind;
use crate::state::{weakest, DetectCtx, Finding, Outcome, PipelineState};
use cocoon_llm::prompts;
use cocoon_llm::{parse_cleaning_map, parse_detect_verdict};
use cocoon_profile::batches;
use cocoon_table::DataType;

/// The prefetched cleaning: the model's explanations, joined, and its
/// old → new map.
struct Plan {
    explanation: String,
    mapping: Vec<(String, String)>,
}

/// Runs string-outlier detection and cleaning over every text column.
pub fn run(state: &mut PipelineState<'_>) {
    state.column_stage(|t| t == DataType::Text, detect, decide, "string outliers");
}

fn detect(ctx: &DetectCtx<'_>, index: usize, column: &str) -> Result<Outcome<Finding<Plan>>> {
    let census = ctx.census(index, ctx.config.sample_size);
    if census.len() < 2 {
        return Ok(Outcome::Clean);
    }

    // Semantic detection (Figure 2).
    let response = ctx.ask(prompts::string_outliers_detect(column, &census))?;
    let verdict = parse_detect_verdict(&response)?;
    if !verdict.unusual {
        return Ok(Outcome::Clean);
    }
    let evidence = format!(
        "{} distinct values sampled by frequency (top {})",
        census.len(),
        ctx.config.sample_size
    );

    // Semantic cleaning (Figure 3): all value batches prefetched as one
    // model batch, so the decide phase needs no further completions.
    let value_batches = batches(&census, ctx.config.batch_size);
    let clean_prompts: Vec<String> = value_batches
        .iter()
        .map(|batch| prompts::string_outliers_clean(column, &verdict.summary, batch))
        .collect();
    let responses = ctx.ask_batch(clean_prompts);
    let mut mapping: Vec<(String, String)> = Vec::new();
    let mut explanations: Vec<String> = Vec::new();
    let mut confidence = verdict.confidence;
    for (batch, response) in value_batches.iter().zip(responses) {
        let map = parse_cleaning_map(&response?)?;
        if !map.explanation.is_empty() {
            explanations.push(map.explanation.clone());
        }
        confidence = weakest(confidence, map.confidence);
        mapping.extend(restrict_mapping(&map.mapping, batch));
    }
    if mapping.is_empty() {
        return Ok(Outcome::Clean);
    }
    Ok(Outcome::Finding(Finding {
        column: Some(column.to_string()),
        evidence,
        reasoning: verdict.reasoning,
        confidence,
        plan: Plan { explanation: explanations.join(" "), mapping },
    }))
}

fn decide(state: &mut PipelineState<'_>, finding: &Finding<Plan>) -> Result<()> {
    let column = finding.column.as_deref().unwrap_or_default();
    let kind = IssueKind::StringOutliers;
    if !state.review_detection(kind, finding, format_args!("string outliers on {column:?}")) {
        return Ok(());
    }
    let Plan { explanation, mapping } = &finding.plan;
    let Some(select) = state.review_cleaning(
        kind,
        finding,
        explanation,
        mapping,
        |table, mapping| value_map_rewrite(table, column, mapping),
        format_args!("string-outlier cleaning on {column:?}"),
    ) else {
        return Ok(());
    };
    state.apply(kind, finding, select, format!("{} {explanation}", finding.reasoning))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanerConfig;
    use crate::decision::AutoApprove;
    use cocoon_llm::{FailingLlm, SimLlm};
    use cocoon_table::{Table, Value};

    fn rayyan_like() -> Table {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for _ in 0..40 {
            rows.push(vec!["eng".into()]);
        }
        for _ in 0..9 {
            rows.push(vec!["English".into()]);
        }
        for _ in 0..5 {
            rows.push(vec!["fre".into()]);
        }
        rows.push(vec!["French".into()]);
        Table::from_text_rows(&["article_language"], &rows).unwrap()
    }

    #[test]
    fn example1_end_to_end() {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(rayyan_like(), &llm, &config, &mut hook);
        run(&mut state);
        assert_eq!(state.ops.len(), 1);
        let op = &state.ops[0];
        assert_eq!(op.issue, IssueKind::StringOutliers);
        assert_eq!(op.cells_changed, 10); // 9 English + 1 French
                                          // Every cell now uses ISO codes.
        let col = state.table.column(0).unwrap();
        assert!(col.values().iter().all(|v| { matches!(v.as_text(), Some("eng") | Some("fre")) }));
        // SQL artifact mentions the CASE map.
        assert!(op.rendered_sql().contains("WHEN 'English' THEN 'eng'"));
    }

    #[test]
    fn clean_column_untouched() {
        let rows: Vec<Vec<String>> = vec![vec!["eng".into()], vec!["fre".into()]];
        let table = Table::from_text_rows(&["lang"], &rows).unwrap();
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table.clone(), &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
        assert_eq!(state.table, table);
    }

    #[test]
    fn llm_failure_degrades_gracefully() {
        let llm = FailingLlm;
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(rayyan_like(), &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
        assert_eq!(state.notes.len(), 1);
        assert!(state.notes[0].contains("degraded"));
    }

    #[test]
    fn reviewer_can_reject() {
        use crate::decision::RejectIssues;
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = RejectIssues { rejected: vec![IssueKind::StringOutliers] };
        let mut state = PipelineState::new(rayyan_like(), &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
        assert!(state.notes[0].contains("rejected"));
    }

    #[test]
    fn non_text_columns_skipped() {
        let rows: Vec<Vec<String>> = vec![vec!["1".into()], vec!["2".into()]];
        let mut table = Table::from_text_rows(&["n"], &rows).unwrap();
        table.set_column_type(0, cocoon_table::DataType::Int).unwrap();
        table.column_mut(0).unwrap().try_cast_all(cocoon_table::DataType::Int);
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, &llm, &config, &mut hook);
        run(&mut state);
        assert!(state.ops.is_empty());
        assert_eq!(state.table.cell(0, 0).unwrap(), &Value::Int(1));
    }

    #[test]
    fn detection_is_identical_across_thread_counts() {
        let run_at = |threads: usize| {
            let llm = SimLlm::new();
            let config = CleanerConfig { threads: Some(threads), ..CleanerConfig::default() };
            let mut hook = AutoApprove;
            let mut state = PipelineState::new(rayyan_like(), &llm, &config, &mut hook);
            run(&mut state);
            (state.table, state.ops.len(), state.notes)
        };
        assert_eq!(run_at(1), run_at(8));
    }
}
