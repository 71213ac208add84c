//! Human-in-the-loop behaviour and LLM failure injection, end to end.

use cocoon_core::{
    Cleaner, CleanerConfig, CleaningReview, Decision, DecisionHook, DetectionReview, IssueKind,
    RecordingHook, RejectIssues,
};
use cocoon_llm::{FailingLlm, ScriptedLlm, SimLlm};
use cocoon_table::csv;

fn messy() -> cocoon_table::Table {
    let mut text = String::from("id,lang\n");
    for i in 0..20 {
        text.push_str(&format!("r{i},eng\n"));
    }
    text.push_str("r20,English\nr21,N/A\n");
    csv::read_str(&text).unwrap()
}

#[test]
fn reviewer_rejections_are_honoured() {
    let table = messy();
    let cleaner = Cleaner::new(SimLlm::new());
    let mut reject_all = RejectIssues {
        rejected: vec![
            IssueKind::StringOutliers,
            IssueKind::PatternOutliers,
            IssueKind::DisguisedMissing,
            IssueKind::ColumnType,
            IssueKind::NumericOutliers,
            IssueKind::FunctionalDependency,
            IssueKind::Duplication,
            IssueKind::Uniqueness,
        ],
    };
    let run = cleaner.clean_with_hook(&table, &mut reject_all).unwrap();
    assert!(run.ops.is_empty(), "a reviewer that rejects everything blocks all repairs");
    assert_eq!(run.table, table);
    assert!(!run.notes.is_empty());
}

#[test]
fn reviewer_can_adjust_a_mapping() {
    struct AdjustLang;
    impl DecisionHook for AdjustLang {
        fn review_detection(&mut self, _r: &DetectionReview<'_>) -> Decision {
            Decision::Approve
        }
        fn review_cleaning(&mut self, review: &CleaningReview<'_>) -> Decision {
            if review.issue == IssueKind::StringOutliers {
                // The human overrides the model: map to "en" instead.
                Decision::AdjustMapping(vec![("English".into(), "en".into())])
            } else {
                Decision::Approve
            }
        }
    }
    let cleaner = Cleaner::new(SimLlm::new());
    let run = cleaner.clean_with_hook(&messy(), &mut AdjustLang).unwrap();
    assert_eq!(run.table.render_cell(20, 1).unwrap(), "en");
}

#[test]
fn recording_hook_sees_every_review() {
    let cleaner = Cleaner::new(SimLlm::new());
    let mut recorder = RecordingHook::default();
    let run = cleaner.clean_with_hook(&messy(), &mut recorder).unwrap();
    assert!(!run.ops.is_empty());
    assert!(
        recorder.detections.len() + recorder.cleanings.len() >= run.ops.len(),
        "each applied op passed at least one review"
    );
}

#[test]
fn dead_llm_degrades_to_noop_without_panicking() {
    let table = messy();
    let run = Cleaner::new(FailingLlm).clean(&table).unwrap();
    assert!(run.ops.is_empty());
    assert_eq!(run.table, table);
    assert!(run.notes.iter().all(|n| n.contains("degraded")));
}

#[test]
fn garbage_responses_degrade_per_column() {
    // A model that answers prose (no JSON/YAML) for every prompt.
    let garbage: Vec<String> = (0..64).map(|_| "I'm sorry, I cannot help.".into()).collect();
    let table = messy();
    let run = Cleaner::new(ScriptedLlm::new(garbage)).clean(&table).unwrap();
    assert!(run.ops.is_empty());
    assert_eq!(run.table, table);
    assert!(!run.notes.is_empty());
}

#[test]
fn half_broken_llm_applies_only_parseable_steps() {
    // First (detection) answer is valid and flags the column; the cleaning
    // answer is malformed → the column degrades; everything after fails.
    let responses = vec![
        r#"{"Reasoning": "mixed", "Unusualness": true, "Summary": "mixed reps"}"#.to_string(),
        "not yaml at all".to_string(),
    ];
    let table = messy();
    let run = Cleaner::new(ScriptedLlm::new(responses)).clean(&table).unwrap();
    assert!(run.ops.is_empty());
    assert_eq!(run.table, table);
}

/// How a transcript run answers the reviews it is shown.
#[derive(Clone, Copy)]
enum Policy {
    /// Approve every review.
    Approve,
    /// Reject both reviews of one issue kind, approve the rest.
    Reject(IssueKind),
    /// Drop the last pair of every string-outlier and DMV cleaning mapping.
    AdjustStringAndDmv,
}

/// A hook that writes every field of every review it is shown, and its
/// answer, as one line each.
struct TranscriptHook {
    policy: Policy,
    calls: usize,
    text: String,
}

impl TranscriptHook {
    fn answer(&mut self, issue: IssueKind, mapping: Option<&[(String, String)]>) -> Decision {
        self.calls += 1;
        match (self.policy, mapping) {
            (Policy::Reject(kind), _) if kind == issue => Decision::Reject,
            (Policy::AdjustStringAndDmv, Some(mapping))
                if matches!(issue, IssueKind::StringOutliers | IssueKind::DisguisedMissing) =>
            {
                Decision::AdjustMapping(mapping[..mapping.len().saturating_sub(1)].to_vec())
            }
            _ => Decision::Approve,
        }
    }
}

impl DecisionHook for TranscriptHook {
    fn review_detection(&mut self, r: &DetectionReview<'_>) -> Decision {
        let decision = self.answer(r.issue, None);
        self.text += &format!(
            "detection {:?} {:?} evidence={:?} reasoning={:?} -> {decision:?}\n",
            r.issue, r.column, r.statistical_evidence, r.llm_reasoning
        );
        decision
    }

    fn review_cleaning(&mut self, r: &CleaningReview<'_>) -> Decision {
        let decision = self.answer(r.issue, Some(r.mapping));
        self.text += &format!(
            "cleaning {:?} {:?} explanation={:?} mapping={:?} sql={:?} -> {decision:?}\n",
            r.issue, r.column, r.llm_explanation, r.mapping, r.sql_preview
        );
        decision
    }
}

/// The review transcript of cleaning `table` once per policy, at one
/// thread: every review field and answer, then the run's notes. Returns
/// the hook call count and the transcript.
fn review_transcript(table: &cocoon_table::Table, policies: &[Policy]) -> (usize, String) {
    let config = CleanerConfig { threads: Some(1), ..CleanerConfig::default() };
    let cleaner = Cleaner::with_config(SimLlm::new(), config).unwrap();
    let mut calls = 0;
    let mut text = String::new();
    for &policy in policies {
        let mut hook = TranscriptHook { policy, calls: 0, text: String::new() };
        let run = cleaner.clean_with_hook(table, &mut hook).unwrap();
        calls += hook.calls;
        text += &hook.text;
        for note in &run.notes {
            text += &format!("note {note:?}\n");
        }
    }
    (calls, text)
}

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, b| (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Pins every review the hook sees, and every note, on the five catalog
/// datasets under three reviewers: approve-all, `RejectIssues`-style
/// rejection of each kind in turn, and a reviewer adjusting string-outlier
/// and DMV mappings. Golden `(calls, FNV-1a hash)` per dataset and reviewer.
#[test]
fn review_transcripts_match_goldens() {
    // (dataset, reviewer, hook calls, FNV-1a of the transcript)
    const GOLDENS: [(&str, &str, usize, u64); 15] = [
        ("Hospital", "approve-all", 44, 0x3005_3418_c012_2f3d),
        ("Hospital", "reject-each-kind", 363, 0x6509_139c_c0c6_704b),
        ("Hospital", "adjust-string-and-dmv", 54, 0xf3f7_3a81_0f51_f204),
        ("Flights", "approve-all", 18, 0x4d9f_da34_b903_42ab),
        ("Flights", "reject-each-kind", 138, 0x69cf_6ab1_1167_65eb),
        ("Flights", "adjust-string-and-dmv", 18, 0xe838_5c81_482d_f4c1),
        ("Beers", "approve-all", 19, 0x4b05_0440_c73b_57f5),
        ("Beers", "reject-each-kind", 147, 0xe4c0_ef8d_1f82_d709),
        ("Beers", "adjust-string-and-dmv", 19, 0x8358_f3b8_caf4_c1b2),
        ("Rayyan", "approve-all", 22, 0x7812_11d9_28ba_c64f),
        ("Rayyan", "reject-each-kind", 177, 0x4a50_eab4_40ae_d33b),
        ("Rayyan", "adjust-string-and-dmv", 26, 0xb176_fb84_c2dc_1d9b),
        ("Movies", "approve-all", 20, 0x4ed8_e2cf_c5b2_b28a),
        ("Movies", "reject-each-kind", 154, 0x7626_ec5b_eef4_bfe5),
        ("Movies", "adjust-string-and-dmv", 20, 0x3757_5974_fa28_6ba7),
    ];
    let reject_each: Vec<Policy> = [
        IssueKind::StringOutliers,
        IssueKind::PatternOutliers,
        IssueKind::DisguisedMissing,
        IssueKind::ColumnType,
        IssueKind::NumericOutliers,
        IssueKind::FunctionalDependency,
        IssueKind::Duplication,
        IssueKind::Uniqueness,
    ]
    .into_iter()
    .map(Policy::Reject)
    .collect();
    let reviewers: [(&str, &[Policy]); 3] = [
        ("approve-all", &[Policy::Approve]),
        ("reject-each-kind", &reject_each),
        ("adjust-string-and-dmv", &[Policy::AdjustStringAndDmv]),
    ];
    // One thread per dataset: each transcript is a single-threaded clean.
    let transcripts: Vec<(&str, &str, usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = cocoon_datasets::all()
            .into_iter()
            .map(|dataset| {
                scope.spawn(move || {
                    reviewers.map(|(reviewer, policies)| {
                        let (calls, text) = review_transcript(&dataset.dirty, policies);
                        (dataset.name, reviewer, calls, text)
                    })
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let mut mismatches = Vec::new();
    for ((dataset, reviewer, calls, text), golden) in transcripts.iter().zip(GOLDENS) {
        let actual = (*dataset, *reviewer, *calls, fnv1a(text));
        if actual != golden {
            eprintln!("--- {dataset} / {reviewer} transcript ---\n{text}");
            let (calls, hash) = (actual.2, actual.3);
            mismatches.push(format!(
                "{dataset} / {reviewer}: ({calls}, {hash:#x}) != golden ({}, {:#x})",
                golden.2, golden.3
            ));
        }
    }
    assert!(mismatches.is_empty(), "review transcripts changed:\n{}", mismatches.join("\n"));
}

/// Answers every FD cleaning review with `adjust(review mapping, review
/// number)`, approving everything else.
struct AdjustFd<F> {
    adjust: F,
    fd_reviews: usize,
}

impl<F: FnMut(&[(String, String)], usize) -> Decision> DecisionHook for AdjustFd<F> {
    fn review_detection(&mut self, _review: &DetectionReview<'_>) -> Decision {
        Decision::Approve
    }

    fn review_cleaning(&mut self, review: &CleaningReview<'_>) -> Decision {
        if review.issue != IssueKind::FunctionalDependency {
            return Decision::Approve;
        }
        self.fd_reviews += 1;
        (self.adjust)(review.mapping, self.fd_reviews)
    }
}

#[test]
fn empty_fd_adjustment_applies_nothing() {
    let hospital = cocoon_datasets::hospital::generate();
    let mut hook =
        AdjustFd { adjust: |_: &[_], _| Decision::AdjustMapping(Vec::new()), fd_reviews: 0 };
    let run = Cleaner::new(SimLlm::new()).clean_with_hook(&hospital.dirty, &mut hook).unwrap();
    assert!(hook.fd_reviews > 0, "Hospital's FD repairs reach the cleaning review");
    assert!(run.ops_for(IssueKind::FunctionalDependency).is_empty());
}

#[test]
fn one_pair_fd_adjustment_changes_only_that_pairs_cells() {
    let hospital = cocoon_datasets::hospital::generate();
    // Keep the first review's first pair; reject every later FD repair.
    let mut kept: Option<(String, String)> = None;
    let mut hook = AdjustFd {
        adjust: |mapping: &[(String, String)], n| {
            if n > 1 {
                return Decision::Reject;
            }
            kept = mapping.first().cloned();
            Decision::AdjustMapping(mapping[..1].to_vec())
        },
        fd_reviews: 0,
    };
    let config = CleanerConfig::only_issue(IssueKind::FunctionalDependency);
    let cleaner = Cleaner::with_config(SimLlm::new(), config).unwrap();
    let run = cleaner.clean_with_hook(&hospital.dirty, &mut hook).unwrap();
    let (old, new) = kept.expect("an FD repair reached the cleaning review");
    let ops = run.ops_for(IssueKind::FunctionalDependency);
    assert_eq!(ops.len(), 1);
    let column = hospital.dirty.schema().index_of(ops[0].column.as_deref().unwrap()).unwrap();
    let mut changed = 0;
    for row in 0..hospital.dirty.height() {
        for c in 0..hospital.dirty.width() {
            let before = hospital.dirty.render_cell(row, c).unwrap();
            let after = run.table.render_cell(row, c).unwrap();
            if before != after {
                assert_eq!((c, &before, &after), (column, &old, &new), "row {row}");
                changed += 1;
            }
        }
    }
    assert!(changed > 0);
    assert_eq!(changed, ops[0].cells_changed);
}
