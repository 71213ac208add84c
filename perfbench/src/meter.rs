//! Probes the traced pass attaches from outside the program: a metering
//! [`ChatModel`] wrapper for the model boundary and a [`StageObserver`] for
//! the pipeline's stage boundaries. Neither changes what the program
//! computes; the transparency check in `library.rs` holds them to that.

use cocoon_core::{StageObserver, StageTiming, STAGE_ORDER};
use cocoon_llm::{ChatModel, ChatRequest, ChatResponse, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Metric keys of the pipeline stages, in [`STAGE_ORDER`].
pub const STAGE_KEYS: [&str; 8] = [
    "string_outliers",
    "pattern_outliers",
    "dmv",
    "column_type",
    "numeric_outliers",
    "fd",
    "duplication",
    "uniqueness",
];

/// Index into [`STAGE_KEYS`] of a stage reported by name.
pub fn stage_index(name: &str) -> Option<usize> {
    STAGE_ORDER.iter().position(|kind| kind.name() == name)
}

/// Running totals at the model boundary. Statistics only: every counter is
/// `Relaxed` and publishes no other data.
#[derive(Debug, Default)]
pub struct MeterCounters {
    busy_ns: AtomicU64,
    prompts: AtomicU64,
    batch_calls: AtomicU64,
    prompt_bytes: AtomicU64,
    response_bytes: AtomicU64,
}

/// A consistent-enough copy of [`MeterCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeterSnapshot {
    pub busy: Duration,
    pub prompts: u64,
    pub batch_calls: u64,
    pub prompt_bytes: u64,
    pub response_bytes: u64,
}

impl MeterSnapshot {
    pub fn since(&self, earlier: &MeterSnapshot) -> MeterSnapshot {
        MeterSnapshot {
            busy: self.busy.saturating_sub(earlier.busy),
            prompts: self.prompts - earlier.prompts,
            batch_calls: self.batch_calls - earlier.batch_calls,
            prompt_bytes: self.prompt_bytes - earlier.prompt_bytes,
            response_bytes: self.response_bytes - earlier.response_bytes,
        }
    }
}

impl MeterCounters {
    pub fn snapshot(&self) -> MeterSnapshot {
        MeterSnapshot {
            busy: Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
            prompts: self.prompts.load(Ordering::Relaxed),
            batch_calls: self.batch_calls.load(Ordering::Relaxed),
            prompt_bytes: self.prompt_bytes.load(Ordering::Relaxed),
            response_bytes: self.response_bytes.load(Ordering::Relaxed),
        }
    }

    fn record(&self, started: Instant, requests: &[ChatRequest], responses: &[&ChatResponse]) {
        let busy = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.fetch_add(busy, Ordering::Relaxed);
        self.prompts.fetch_add(requests.len() as u64, Ordering::Relaxed);
        let prompt_bytes: usize =
            requests.iter().flat_map(|r| &r.messages).map(|m| m.content.len()).sum();
        self.prompt_bytes.fetch_add(prompt_bytes as u64, Ordering::Relaxed);
        let response_bytes: usize = responses.iter().map(|r| r.content.len()).sum();
        self.response_bytes.fetch_add(response_bytes as u64, Ordering::Relaxed);
    }
}

/// Times and counts every call that reaches the wrapped model.
pub struct Meter<M> {
    inner: M,
    counters: Arc<MeterCounters>,
}

impl<M: ChatModel> Meter<M> {
    pub fn new(inner: M) -> Self {
        Meter { inner, counters: Arc::default() }
    }

    pub fn counters(&self) -> &Arc<MeterCounters> {
        &self.counters
    }
}

impl<M: ChatModel> ChatModel for Meter<M> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse> {
        let started = Instant::now();
        let response = self.inner.complete(request);
        let ok: Vec<&ChatResponse> = response.iter().collect();
        self.counters.record(started, std::slice::from_ref(request), &ok);
        self.counters.batch_calls.fetch_add(1, Ordering::Relaxed);
        response
    }

    fn complete_batch(&self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse>> {
        let started = Instant::now();
        let responses = self.inner.complete_batch(requests);
        let ok: Vec<&ChatResponse> = responses.iter().flatten().collect();
        self.counters.record(started, requests, &ok);
        self.counters.batch_calls.fetch_add(1, Ordering::Relaxed);
        responses
    }
}

/// One stage of one clean: the observer's timings plus the meter's deltas
/// across the stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCost {
    pub total: Duration,
    pub detect: Duration,
    pub model: MeterSnapshot,
}

/// Per-stage costs of one clean, gathered at stage boundaries.
pub struct StageProbe {
    counters: Arc<MeterCounters>,
    state: Mutex<ProbeState>,
}

struct ProbeState {
    last: MeterSnapshot,
    stages: [StageCost; 8],
    ops_applied: usize,
}

impl StageProbe {
    /// A probe whose first stage is measured from the meter's state now.
    pub fn new(counters: Arc<MeterCounters>) -> Self {
        let last = counters.snapshot();
        StageProbe {
            counters,
            state: Mutex::new(ProbeState {
                last,
                stages: [StageCost::default(); 8],
                ops_applied: 0,
            }),
        }
    }

    /// The per-stage costs and the final applied-op count.
    pub fn finish(&self) -> ([StageCost; 8], usize) {
        let state = self.state.lock().expect("probe lock poisoned by a panicking clean");
        (state.stages, state.ops_applied)
    }
}

impl StageObserver for StageProbe {
    fn stage_finished(&self, timing: StageTiming) {
        let now = self.counters.snapshot();
        let mut state = self.state.lock().expect("probe lock poisoned by a panicking clean");
        let model = now.since(&state.last);
        state.last = now;
        state.ops_applied = timing.ops_applied;
        if let Some(i) = stage_index(timing.stage) {
            state.stages[i] = StageCost { total: timing.total, detect: timing.detect, model };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoon_llm::ScriptedLlm;

    #[test]
    fn every_stage_has_a_key() {
        for kind in STAGE_ORDER {
            assert!(stage_index(kind.name()).is_some(), "{}", kind.name());
        }
    }

    #[test]
    fn the_meter_counts_single_and_batched_calls() {
        let meter = Meter::new(ScriptedLlm::new(["ab", "cde", "f"]));
        let request = ChatRequest::simple("hello");
        assert_eq!(meter.complete(&request).unwrap().content, "ab");
        let batch = meter.complete_batch(&[request.clone(), request]);
        assert_eq!(batch.len(), 2);
        let s = meter.counters().snapshot();
        assert_eq!((s.prompts, s.batch_calls, s.prompt_bytes, s.response_bytes), (3, 2, 15, 6));
    }
}
