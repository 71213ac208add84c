//! §2.1.6 Functional Dependencies.
//!
//! Following Baran, only single-attribute FDs are considered. Statistical
//! detection ranks column pairs by conditional entropy; the LLM reviews
//! whether a statistically strong FD is *semantically* meaningful (the
//! Flights `flight → actual time` FD is the canonical rejection); for
//! meaningful FDs the LLM maps each violating group's wrong values to the
//! correct one, compiled to a group-scoped `CASE WHEN`.
//!
//! Detect phase (concurrent, per candidate pair): violating groups on the
//! stage-entry snapshot → semantic FD review. Decide phase (sequential):
//! FD repairs can interact (one repair may fix — or create — another
//! candidate's violations), so a candidate keeps its snapshot groups only
//! while its lhs and rhs columns are unchanged since the snapshot;
//! once an earlier repair rewrote either, it recomputes its groups against
//! the live table.

use crate::apply::{apply_and_count, column_rewrite_select};
use crate::decision::{CleaningReview, Decision, DetectionReview};
use crate::ops::{CleaningOp, Confidence, IssueKind};
use crate::state::{unchanged, DetectCtx, Outcome, PipelineState};
use cocoon_llm::{parse_cleaning_map, parse_fd_verdict, prompts, FdVerdict};
use cocoon_profile::{fd_violating_groups, FdCandidate, FdScan};
use cocoon_sql::{render_select, Expr};
use cocoon_table::{Table, Value};

/// Violating groups: `(lhs value, rhs census)`, census by descending count.
type Groups = Vec<(Value, Vec<(Value, usize)>)>;

/// How many violating groups the semantic review prompt shows.
const REVIEW_GROUPS: usize = 5;

struct Finding {
    lhs: usize,
    rhs: usize,
    lhs_name: String,
    rhs_name: String,
    strength: f64,
    /// Semantic review prefetched on the snapshot. `None` when the snapshot
    /// had no violating groups, so no review was spent; the decide phase
    /// asks in the rare case an earlier repair has since created some.
    verdict: Option<FdVerdict>,
    /// Violating groups on the stage-entry snapshot. A rejected verdict
    /// keeps only the head its review saw: the decide phase needs no more
    /// than to know there were some, and the full set can be large.
    groups: Groups,
}

fn degraded(err: &crate::error::CoreError) -> String {
    format!("FD repair degraded to statistical-only: {err}")
}

/// Runs FD review and repair over the whole table.
pub fn run(state: &mut PipelineState<'_>) {
    // The stage-entry snapshot shares the table's columns; the decide phase
    // checks candidates' lhs and rhs against it for staleness.
    let snapshot = state.table.clone();
    let outcomes = {
        // One scan encodes every column once; candidate scoring and each
        // detection worker's group extraction all reuse it.
        let scan = FdScan::new(&snapshot);
        // While the entry profile still describes the whole table its
        // candidates were scored under the same thresholds
        // (`CleanerConfig::profile_options` maps them) — reuse them instead
        // of scoring every column pair again.
        let candidates = match state.detect_ctx().table_profile() {
            Some(profile) => profile.fd_candidates.clone(),
            None => scan.candidates(state.config.fd_min_strength, state.config.fd_max_unique_ratio),
        };
        state.detect_map(candidates, |ctx, candidate| detect_candidate(ctx, &scan, candidate))
    };
    state.decide_outcomes(
        outcomes,
        |state, finding| decide(state, &snapshot, finding),
        |_, err| degraded(err),
    );
}

/// Renders groups as prompt text.
fn render(groups: &[(Value, Vec<(Value, usize)>)]) -> Vec<(String, Vec<(String, usize)>)> {
    groups
        .iter()
        .map(|(l, census)| (l.render(), census.iter().map(|(v, c)| (v.render(), *c)).collect()))
        .collect()
}

/// The semantic FD review prompt over (the head of) `groups`.
fn review_prompt(lhs_name: &str, rhs_name: &str, strength: f64, groups: &Groups) -> String {
    let head = render(&groups[..groups.len().min(REVIEW_GROUPS)]);
    prompts::fd_review(lhs_name, rhs_name, strength, groups.len(), &head)
}

fn detect_candidate(
    ctx: &DetectCtx<'_>,
    scan: &FdScan,
    candidate: FdCandidate,
) -> Outcome<Finding> {
    match detect_inner(ctx, scan, &candidate) {
        Ok(outcome) => outcome,
        Err(err) => Outcome::Note(degraded(&err)),
    }
}

fn detect_inner(
    ctx: &DetectCtx<'_>,
    scan: &FdScan,
    candidate: &FdCandidate,
) -> crate::error::Result<Outcome<Finding>> {
    let lhs_name = ctx.table.schema().field(candidate.lhs)?.name().to_string();
    let rhs_name = ctx.table.schema().field(candidate.rhs)?.name().to_string();
    let mut groups = scan.violating_groups(candidate.lhs, candidate.rhs);
    // No violations on the snapshot: no review to spend. The finding still
    // reaches the decide phase, which re-checks against the live table.
    let verdict = if groups.is_empty() {
        None
    } else {
        let prompt = review_prompt(&lhs_name, &rhs_name, candidate.strength, &groups);
        Some(parse_fd_verdict(&ctx.ask(prompt)?)?)
    };
    if verdict.as_ref().is_some_and(|verdict| !verdict.meaningful) {
        groups.truncate(REVIEW_GROUPS);
    }
    Ok(Outcome::Finding(Finding {
        lhs: candidate.lhs,
        rhs: candidate.rhs,
        lhs_name,
        rhs_name,
        strength: candidate.strength,
        verdict,
        groups,
    }))
}

/// Reviews and (when approved) repairs one candidate.
fn decide(
    state: &mut PipelineState<'_>,
    snapshot: &Table,
    finding: &Finding,
) -> crate::error::Result<()> {
    let (lhs_name, rhs_name) = (finding.lhs_name.as_str(), finding.rhs_name.as_str());
    // The snapshot's groups serve while lhs and rhs are unchanged; once an
    // earlier repair rewrote either, they are recomputed on the live table.
    let live: Groups;
    let groups = if unchanged(snapshot, &state.table, [finding.lhs, finding.rhs]) {
        &finding.groups
    } else {
        let column = |i| state.table.column(i).map(|c| c.values());
        live = fd_violating_groups(column(finding.lhs)?, column(finding.rhs)?);
        &live
    };
    if groups.is_empty() {
        return Ok(());
    }
    let verdict = match &finding.verdict {
        Some(verdict) => verdict.clone(),
        // An earlier repair created violations the snapshot didn't have;
        // ask for the semantic review now, on live groups.
        None => {
            let prompt = review_prompt(lhs_name, rhs_name, finding.strength, groups);
            parse_fd_verdict(&state.ask(prompt)?)?
        }
    };
    let FdVerdict { meaningful, reasoning, confidence: review_confidence } = verdict;
    if !meaningful {
        state.note(format!(
            "FD {lhs_name} → {rhs_name} rejected as not semantically meaningful: {reasoning}"
        ));
        return Ok(());
    }
    let evidence =
        format!("entropy strength {:.3}; {} violating groups", finding.strength, groups.len());
    let detection = DetectionReview {
        issue: IssueKind::FunctionalDependency,
        column: Some(rhs_name),
        statistical_evidence: &evidence,
        llm_reasoning: &reasoning,
    };
    if state.hook.review_detection(&detection) == Decision::Reject {
        state.note(format!("FD {lhs_name} → {rhs_name} rejected by reviewer"));
        return Ok(());
    }

    // Semantic cleaning: the LLM provides the correct mapping per group.
    let groups_text = render(groups);
    let response = state.ask(prompts::fd_mapping(lhs_name, rhs_name, &groups_text))?;
    let map = parse_cleaning_map(&response)?;
    if map.mapping.is_empty() {
        return Ok(());
    }

    // Compile group-scoped CASE arms: a pair (old → new) applies only inside
    // groups that contain `old` and whose plurality value is `new`. Literals
    // are parsed back into the column's declared type so repairs keep
    // working after a CAST step retyped the column.
    let lhs_type = state.table.schema().field(finding.lhs)?.data_type();
    let rhs_type = state.table.schema().field(finding.rhs)?.data_type();
    let typed = |raw: &str, ty: cocoon_table::DataType| -> Value {
        let text = Value::Text(raw.to_string());
        text.cast(ty).unwrap_or(text)
    };
    let mut arms: Vec<(Expr, Expr)> = Vec::new();
    let mut pairs_for_review: Vec<(String, String)> = Vec::new();
    for (lhs_value, census) in &groups_text {
        let Some((top_value, _)) = census.first() else { continue };
        for (old, new) in &map.mapping {
            if new != top_value || old == new {
                continue;
            }
            if !census.iter().any(|(v, _)| v == old) {
                continue;
            }
            let condition = Expr::and(
                Expr::eq(Expr::col(lhs_name), Expr::Literal(typed(lhs_value, lhs_type))),
                Expr::eq(Expr::col(rhs_name), Expr::Literal(typed(old, rhs_type))),
            );
            arms.push((condition, Expr::Literal(typed(new, rhs_type))));
            pairs_for_review.push((old.clone(), new.clone()));
        }
    }
    if arms.is_empty() {
        return Ok(());
    }
    let expr = Expr::Case { operand: None, arms, otherwise: Some(Box::new(Expr::col(rhs_name))) };
    let select = column_rewrite_select(&state.table, rhs_name, expr);
    let preview = render_select(&select);
    let review = CleaningReview {
        issue: IssueKind::FunctionalDependency,
        column: Some(rhs_name),
        llm_explanation: &map.explanation,
        mapping: &pairs_for_review,
        sql_preview: &preview,
    };
    if state.hook.review_cleaning(&review) == Decision::Reject {
        state.note(format!("FD repair {lhs_name} → {rhs_name} rejected by reviewer"));
        return Ok(());
    }
    let (table, changed) = apply_and_count(&select, &state.table)?;
    if changed == 0 {
        return Ok(());
    }
    let confidence = match (review_confidence, map.confidence) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    state.commit_op(
        table,
        CleaningOp {
            issue: IssueKind::FunctionalDependency,
            column: Some(rhs_name.to_string()),
            statistical_evidence: format!("{lhs_name} → {rhs_name}: {evidence}"),
            llm_reasoning: format!("{reasoning} {}", map.explanation),
            sql: select,
            cells_changed: changed,
            confidence: Confidence::self_reported(confidence),
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

    fn hospital_like() -> Table {
        // zip → city holds across 10 zip groups except one typo and one
        // misplaced county value.
        let cities = [
            "birmingham",
            "dothan",
            "mobile",
            "huntsville",
            "montgomery",
            "tuscaloosa",
            "phoenix",
            "tucson",
            "austin",
            "dallas",
        ];
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (i, city) in cities.iter().enumerate() {
            let zip = format!("35{:03}", i);
            for _ in 0..8 {
                rows.push(vec![zip.clone(), (*city).into()]);
            }
        }
        rows[1][1] = "birminghxm".into(); // typo in the birmingham group
        rows[9][1] = "jefferson".into(); // misplaced county in the dothan group
        Table::from_text_rows(&["zip_code", "city"], &rows).unwrap()
    }

    fn run_on(table: Table) -> (Table, Vec<CleaningOp>, Vec<String>) {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table, &llm, &config, &mut hook);
        run(&mut state);
        (state.table, state.ops, state.notes)
    }

    #[test]
    fn zip_city_fd_repaired_by_majority() {
        let (cleaned, ops, _) = run_on(hospital_like());
        assert!(!ops.is_empty());
        let city = cleaned.column_by_name("city").unwrap();
        assert!(!city
            .values()
            .iter()
            .any(|v| { matches!(v.as_text(), Some("birminghxm") | Some("jefferson")) }));
        assert_eq!(cleaned.render_cell(1, 1).unwrap(), "birmingham");
        assert_eq!(cleaned.render_cell(9, 1).unwrap(), "dothan");
        let op = &ops[0];
        assert_eq!(op.issue, IssueKind::FunctionalDependency);
        assert_eq!(op.cells_changed, 2);
        assert!(op.rendered_sql().contains("zip_code ="));
    }

    #[test]
    fn actual_time_fd_rejected() {
        // flight → actual_arrival is statistically strong but semantically
        // rejected (the paper's Flights analysis).
        let mut rows: Vec<Vec<String>> = Vec::new();
        // 20 flights, each with a consistent time except two flights whose
        // actual arrival varies by a minute — statistically a strong FD.
        for f in 0..20 {
            let time = format!("{}:{:02} p.m.", (f % 11) + 1, f * 2);
            for _ in 0..6 {
                rows.push(vec![format!("AA-{f}"), time.clone()]);
            }
        }
        rows[1][1] = "10:31 p.m.".into();
        rows[7][1] = "10:39 p.m.".into();
        let table = Table::from_text_rows(&["flight", "actual_arrival_time"], &rows).unwrap();
        let (cleaned, ops, notes) = run_on(table.clone());
        assert!(ops.is_empty());
        assert_eq!(cleaned, table);
        assert!(notes.iter().any(|n| n.contains("rejected as not semantically meaningful")));
    }

    #[test]
    fn consistent_fd_no_op() {
        let rows: Vec<Vec<String>> = vec![
            vec!["1".into(), "a".into()],
            vec!["1".into(), "a".into()],
            vec!["2".into(), "b".into()],
            vec!["2".into(), "b".into()],
        ];
        let table = Table::from_text_rows(&["code", "name"], &rows).unwrap();
        let (_, ops, _) = run_on(table);
        assert!(ops.is_empty());
    }

    #[test]
    fn ambiguous_group_left_alone() {
        // Two rhs values with equal support and no typo relation: the
        // mapping skips the group.
        let rows: Vec<Vec<String>> = vec![
            vec!["z1".into(), "alpha".into()],
            vec!["z1".into(), "omega".into()],
            vec!["z1".into(), "alpha".into()],
            vec!["z1".into(), "omega".into()],
            vec!["z2".into(), "beta".into()],
            vec!["z2".into(), "beta".into()],
        ];
        let table = Table::from_text_rows(&["zone_code", "name"], &rows).unwrap();
        let (cleaned, ops, _) = run_on(table.clone());
        assert!(ops.is_empty());
        assert_eq!(cleaned, table);
    }
}
