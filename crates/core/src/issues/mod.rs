//! The eight issue types of §2.1, each decomposed into statistical
//! detection, semantic detection and semantic cleaning (Figure 1b).
//!
//! Every module follows the same two-phase shape (see [`crate::state`]):
//! a read-only `detect` that fans out across columns (or FD candidates) on
//! the stage thread pool and returns ordered `Outcome`s, and a sequential
//! `decide` that routes each finding through the [`crate::DecisionHook`]
//! reviews and applies the compiled SQL. Detection sees the table as it
//! stood when the stage began; mutation happens only in the decide phase.
//!
//! A module supplies only what is specific to its issue: the detect body
//! that turns statistics and model verdicts into a `Finding` (with the
//! stage's own repair plan), the compile step from that plan to SQL, and
//! the wording of its notes. [`PipelineState`](crate::PipelineState) owns
//! the per-column fan-out and its type gate, the two reviews, and applying
//! and committing the op, so a per-column stage's `run` is one call to
//! `column_stage`.

pub mod column_type;
pub mod dmv;
pub mod duplication;
pub mod functional_dependency;
pub mod numeric_outlier;
pub mod pattern_outlier;
pub mod string_outlier;
pub mod uniqueness;
