//! Server-side observability: request ids and span traces, per-endpoint
//! and per-stage latency histograms, the structured access log, and
//! Prometheus text exposition.
//!
//! Every request that reaches an event loop gets a [`RequestTrace`]: a
//! monotonically-assigned id (echoed as `X-Request-Id`) plus a
//! [`SpanRecorder`] whose origin is the moment the request's first bytes
//! were seen. The event loop records the transport segments (head parse,
//! body read / CSV stream, response write), the worker records queue wait
//! and the handler, and two observer adapters fan pipeline internals into
//! the same tree: [`StageSpanObserver`] turns `cocoon_core::StageTiming`
//! into per-stage spans + histogram samples, and [`BatchFanout`] broadcasts
//! `cocoon_llm::BatchEvent`s to every request currently inside a handler.
//!
//! All durations are recorded in **nanoseconds** and exported in
//! microseconds (`/v1/metrics`) or seconds (`GET /metrics`), matching the
//! `cocoon_obs::Histogram` convention.

use cocoon_core::{StageObserver, StageTiming};
use cocoon_llm::{BatchEvent, DispatchObserver};
use cocoon_obs::{format_tree, Histogram, SpanRecord, SpanRecorder};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How the per-request access log renders on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// One JSON object per finished request.
    Json,
    /// No access log (the default).
    Off,
}

impl std::str::FromStr for LogFormat {
    type Err = String;
    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw {
            "json" => Ok(LogFormat::Json),
            "off" => Ok(LogFormat::Off),
            other => Err(format!("unknown log format {other:?} (expected json|off)")),
        }
    }
}

/// One request's identity and span tree, shared between the owning event
/// loop, the worker that runs the handler, and the pipeline observers.
#[derive(Debug)]
pub struct RequestTrace {
    /// The process-unique request id (echoed as `X-Request-Id`).
    pub id: u64,
    /// The span tree, origin-stamped at the request's first bytes.
    pub recorder: SpanRecorder,
    /// Normalised route label, set once the head parses (stays `"other"`
    /// for requests that die before that).
    route: Mutex<&'static str>,
}

impl RequestTrace {
    /// Stamps the normalised route once the head is parsed.
    pub fn set_route(&self, route: &'static str) {
        *self.route.lock().expect("trace route lock") = route;
    }

    /// The route label (for the access log and endpoint histograms).
    pub fn route(&self) -> &'static str {
        *self.route.lock().expect("trace route lock")
    }
}

/// A finished request retained in the in-process ring for tests and
/// debugging: the whole span tree plus the access-log facts.
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    /// The request id that was echoed as `X-Request-Id`.
    pub id: u64,
    /// Normalised route label.
    pub route: &'static str,
    /// Response status.
    pub status: u16,
    /// Response body bytes.
    pub bytes: usize,
    /// First-byte-to-last-byte wall time, nanoseconds.
    pub total_ns: u64,
    /// The span tree in recording order.
    pub spans: Vec<SpanRecord>,
}

/// Finished traces retained for in-process inspection.
const RECENT_TRACES: usize = 64;

/// The endpoint labels latency is bucketed under. `"other"` absorbs 404s
/// and requests that failed before routing.
pub const ENDPOINTS: [&str; 9] = [
    "/v1/clean",
    "/v1/jobs",
    "/v1/jobs/{id}",
    "/v1/reviews",
    "/v1/reviews/{id}",
    "/v1/datasets",
    "/v1/metrics",
    "/metrics",
    "other",
];

/// The Prometheus `le` bucket bounds, in seconds.
const PROM_BUCKETS_SECS: [f64; 10] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0];

/// Normalises a request path to one of [`ENDPOINTS`].
pub fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/v1/clean" => "/v1/clean",
        "/v1/jobs" => "/v1/jobs",
        "/v1/datasets" => "/v1/datasets",
        "/v1/metrics" => "/v1/metrics",
        "/metrics" => "/metrics",
        "/v1/reviews" => "/v1/reviews",
        p if p.starts_with("/v1/jobs/") => "/v1/jobs/{id}",
        p if p.starts_with("/v1/reviews/") => "/v1/reviews/{id}",
        _ => "other",
    }
}

thread_local! {
    /// The trace of the request the current worker thread is handling,
    /// with the handler span's index — how `AppState::run_clean` finds the
    /// tree to hang stage and batch spans under without threading a
    /// parameter through every routing signature.
    static CURRENT_TRACE: RefCell<Option<(Arc<RequestTrace>, usize)>> = const { RefCell::new(None) };
}

/// Runs `f` with `(trace, handler span index)` installed as the thread's
/// current request, restoring the previous value after (worker threads
/// handle requests strictly one at a time, so this nests trivially).
pub fn with_current_trace<R>(
    current: Option<(Arc<RequestTrace>, usize)>,
    f: impl FnOnce() -> R,
) -> R {
    let previous = CURRENT_TRACE.with(|slot| slot.replace(current));
    let result = f();
    CURRENT_TRACE.with(|slot| slot.replace(previous));
    result
}

/// The current thread's request trace and handler span index, if any.
pub fn current_trace() -> Option<(Arc<RequestTrace>, usize)> {
    CURRENT_TRACE.with(|slot| slot.borrow().clone())
}

/// Broadcasts LLM batch round-trips to every request currently inside a
/// handler. The dispatcher is process-wide, and one batch can carry (and
/// coalesce) prompts from several concurrent requests, so batch events
/// fan out to *all* active subscribers rather than to one owner; each
/// event also lands in a shared `llm_batch` histogram.
#[derive(Default)]
pub struct BatchFanout {
    subscribers: Mutex<Vec<(u64, Arc<RequestTrace>, usize)>>,
    next_key: AtomicU64,
    /// Backend round-trip times (throttle sleep included), nanoseconds.
    pub latency: Histogram,
}

impl BatchFanout {
    /// Subscribes a request for the duration of the returned guard; batch
    /// events fired meanwhile are recorded as `llm_batch` spans under
    /// `parent` in its trace.
    pub fn subscribe(
        self: &Arc<Self>,
        trace: Arc<RequestTrace>,
        parent: usize,
    ) -> BatchSubscription {
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        self.subscribers.lock().expect("fanout lock").push((key, trace, parent));
        BatchSubscription { fanout: Arc::clone(self), key }
    }
}

impl DispatchObserver for BatchFanout {
    fn batch_dispatched(&self, event: BatchEvent) {
        let total = event.rate_limit_wait + event.backend_elapsed;
        self.latency.record(total.as_nanos() as u64);
        let end = Instant::now();
        let start = end.checked_sub(total).unwrap_or(end);
        let attrs = vec![
            ("batch_size", event.batch_size.to_string()),
            ("coalesced_total", event.coalesced_total.to_string()),
            ("rate_limit_wait_us", event.rate_limit_wait.as_micros().to_string()),
            ("backend_us", event.backend_elapsed.as_micros().to_string()),
        ];
        for (_, trace, parent) in self.subscribers.lock().expect("fanout lock").iter() {
            trace.recorder.record_with_attrs("llm_batch", start, end, Some(*parent), attrs.clone());
        }
    }
}

/// Unsubscribes its request from the [`BatchFanout`] on drop.
pub struct BatchSubscription {
    fanout: Arc<BatchFanout>,
    key: u64,
}

impl Drop for BatchSubscription {
    fn drop(&mut self) {
        self.fanout.subscribers.lock().expect("fanout lock").retain(|(key, _, _)| *key != self.key);
    }
}

/// Adapts [`cocoon_core::StageObserver`] to the server: every finished
/// pipeline stage lands in the shared per-stage histogram registry, and —
/// when the clean runs inside a traced request — as a span under the
/// handler, with detect time and applied-op count as attributes.
pub struct StageSpanObserver {
    obs: Arc<ServerObs>,
    trace: Option<(Arc<RequestTrace>, usize)>,
}

impl StageObserver for StageSpanObserver {
    fn stage_finished(&self, timing: StageTiming) {
        self.obs.record_stage(timing.stage, timing.total.as_nanos() as u64);
        if let Some((trace, parent)) = &self.trace {
            let end = Instant::now();
            let start = end.checked_sub(timing.total).unwrap_or(end);
            trace.recorder.record_with_attrs(
                timing.stage,
                start,
                end,
                Some(*parent),
                vec![
                    ("detect_us", timing.detect.as_micros().to_string()),
                    ("ops_applied", timing.ops_applied.to_string()),
                ],
            );
        }
    }
}

/// The server's observability registry, one per [`AppState`]: request-id
/// allocation, latency histograms, the recent-trace ring, and the logging
/// policy.
///
/// [`AppState`]: crate::server::AppState
pub struct ServerObs {
    next_request_id: AtomicU64,
    /// One histogram per [`ENDPOINTS`] label, nanoseconds.
    endpoints: Vec<(&'static str, Histogram)>,
    /// Per-pipeline-stage histograms, created on first sight, nanoseconds.
    stages: Mutex<Vec<(&'static str, Arc<Histogram>)>>,
    recent: Mutex<VecDeque<FinishedTrace>>,
    /// The shared LLM-batch observer (installed on the dispatcher once).
    pub batches: Arc<BatchFanout>,
    /// Access-log rendering.
    pub log_format: LogFormat,
    /// Requests slower than this dump their full span tree to stderr.
    pub slow_request_ms: Option<u64>,
}

impl ServerObs {
    /// A fresh registry with the given logging policy.
    pub fn new(log_format: LogFormat, slow_request_ms: Option<u64>) -> Self {
        ServerObs {
            next_request_id: AtomicU64::new(1),
            endpoints: ENDPOINTS.iter().map(|&label| (label, Histogram::new())).collect(),
            stages: Mutex::new(Vec::new()),
            recent: Mutex::new(VecDeque::new()),
            batches: Arc::new(BatchFanout::default()),
            log_format,
            slow_request_ms,
        }
    }

    /// Allocates the next request id and opens a trace whose span origin is
    /// `origin` (the moment the request's first bytes were seen).
    pub fn begin_request(&self, origin: Instant) -> RequestTrace {
        RequestTrace {
            id: self.next_request_id.fetch_add(1, Ordering::Relaxed),
            recorder: SpanRecorder::with_origin(origin),
            route: Mutex::new("other"),
        }
    }

    /// A stage observer feeding this registry, attributing spans to the
    /// current thread's request if there is one (sync cleans); job workers
    /// run outside any request and feed histograms only.
    pub fn stage_observer(self: &Arc<Self>) -> Arc<StageSpanObserver> {
        Arc::new(StageSpanObserver { obs: Arc::clone(self), trace: current_trace() })
    }

    fn record_stage(&self, stage: &'static str, total_ns: u64) {
        let histogram = {
            let mut stages = self.stages.lock().expect("stage registry lock");
            match stages.iter().find(|(name, _)| *name == stage) {
                Some((_, histogram)) => Arc::clone(histogram),
                None => {
                    let histogram = Arc::new(Histogram::new());
                    stages.push((stage, Arc::clone(&histogram)));
                    histogram
                }
            }
        };
        histogram.record(total_ns);
    }

    /// Seals a finished request: records its endpoint latency, retains the
    /// trace in the ring, emits the access-log line, and dumps the span
    /// tree when the request crossed the slow threshold. Called by the
    /// event loop once the response's last byte is written.
    pub fn finish_request(&self, trace: &RequestTrace, status: u16, bytes: usize) {
        let total_ns = trace.recorder.origin().elapsed().as_nanos() as u64;
        let route = trace.route();
        if let Some((_, histogram)) = self.endpoints.iter().find(|(label, _)| *label == route) {
            histogram.record(total_ns);
        }
        let spans = trace.recorder.finish();
        if self.log_format == LogFormat::Json {
            eprintln!("{}", access_log_line(trace.id, route, status, bytes, total_ns, &spans));
        }
        if let Some(threshold_ms) = self.slow_request_ms {
            if total_ns / 1_000_000 >= threshold_ms {
                eprintln!(
                    "slow request {} ({} ms) {} -> {}:\n{}",
                    trace.id,
                    total_ns / 1_000_000,
                    route,
                    status,
                    format_tree(&spans),
                );
            }
        }
        let mut recent = self.recent.lock().expect("recent traces lock");
        if recent.len() >= RECENT_TRACES {
            recent.pop_front();
        }
        recent.push_back(FinishedTrace { id: trace.id, route, status, bytes, total_ns, spans });
    }

    /// The most recent finished traces, oldest first (tests and debugging).
    pub fn recent_traces(&self) -> Vec<FinishedTrace> {
        self.recent.lock().expect("recent traces lock").iter().cloned().collect()
    }

    /// Per-stage `(name, histogram)` pairs in first-seen order.
    pub fn stage_histograms(&self) -> Vec<(&'static str, Arc<Histogram>)> {
        self.stages.lock().expect("stage registry lock").clone()
    }

    /// The `"latency"` section of the `/v1/metrics` JSON body: per-endpoint
    /// and per-stage percentiles in microseconds (plus the LLM batch
    /// round-trip histogram under stage key `"llm_batch"`). Endpoints with
    /// no samples are omitted.
    pub fn latency_json(&self) -> String {
        let mut out = String::from("{\"endpoints\": {");
        let mut first = true;
        for (label, histogram) in &self.endpoints {
            if histogram.count() == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{label}\": {}", summary_json(histogram)));
        }
        out.push_str("}, \"stages\": {");
        let mut first = true;
        for (name, histogram) in self.stage_histograms() {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{name}\": {}", summary_json(&histogram)));
        }
        if self.batches.latency.count() > 0 {
            if !first {
                out.push_str(", ");
            }
            out.push_str(&format!("\"llm_batch\": {}", summary_json(&self.batches.latency)));
        }
        out.push_str("}}");
        out
    }

    /// Renders every latency histogram in Prometheus text format:
    /// `cocoon_request_duration_seconds` by endpoint and
    /// `cocoon_stage_duration_seconds` by stage, with cumulative `le`
    /// buckets (monotone by construction of
    /// [`Histogram::cumulative_below`]).
    pub fn prometheus_histograms(&self, out: &mut String) {
        out.push_str("# HELP cocoon_request_duration_seconds Request latency by endpoint.\n");
        out.push_str("# TYPE cocoon_request_duration_seconds histogram\n");
        for (label, histogram) in &self.endpoints {
            if histogram.count() > 0 {
                prometheus_histogram(
                    out,
                    "cocoon_request_duration_seconds",
                    "endpoint",
                    label,
                    histogram,
                );
            }
        }
        out.push_str("# HELP cocoon_stage_duration_seconds Pipeline stage latency.\n");
        out.push_str("# TYPE cocoon_stage_duration_seconds histogram\n");
        for (name, histogram) in self.stage_histograms() {
            prometheus_histogram(out, "cocoon_stage_duration_seconds", "stage", name, &histogram);
        }
        if self.batches.latency.count() > 0 {
            prometheus_histogram(
                out,
                "cocoon_stage_duration_seconds",
                "stage",
                "llm_batch",
                &self.batches.latency,
            );
        }
    }
}

/// `{"count": …, "p50_us": …, "p90_us": …, "p99_us": …, "max_us": …}`.
fn summary_json(histogram: &Histogram) -> String {
    format!(
        "{{\"count\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
        histogram.count(),
        histogram.percentile(50.0) / 1_000,
        histogram.percentile(90.0) / 1_000,
        histogram.percentile(99.0) / 1_000,
        histogram.max() / 1_000,
    )
}

fn prometheus_histogram(
    out: &mut String,
    metric: &str,
    label_key: &str,
    label: &str,
    histogram: &Histogram,
) {
    for bound in PROM_BUCKETS_SECS {
        let below = histogram.cumulative_below((bound * 1e9) as u64);
        out.push_str(&format!(
            "{metric}_bucket{{{label_key}=\"{label}\",le=\"{bound}\"}} {below}\n"
        ));
    }
    out.push_str(&format!(
        "{metric}_bucket{{{label_key}=\"{label}\",le=\"+Inf\"}} {}\n",
        histogram.count()
    ));
    out.push_str(&format!(
        "{metric}_sum{{{label_key}=\"{label}\"}} {}\n",
        histogram.sum() as f64 / 1e9
    ));
    out.push_str(&format!("{metric}_count{{{label_key}=\"{label}\"}} {}\n", histogram.count()));
}

/// One access-log line: request identity, outcome, and the top-level
/// segment durations in microseconds (nested spans are counted, not
/// inlined — the slow-request dump carries the full tree).
fn access_log_line(
    id: u64,
    route: &str,
    status: u16,
    bytes: usize,
    total_ns: u64,
    spans: &[SpanRecord],
) -> String {
    let mut segments = String::new();
    for span in spans.iter().filter(|s| s.parent.is_none()) {
        if !segments.is_empty() {
            segments.push_str(", ");
        }
        segments.push_str(&format!("\"{}\": {}", span.name, span.duration_ns / 1_000));
    }
    format!(
        "{{\"request_id\": {id}, \"route\": \"{route}\", \"status\": {status}, \
         \"bytes\": {bytes}, \"total_us\": {}, \"segments\": {{{segments}}}, \"spans\": {}}}",
        total_ns / 1_000,
        spans.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn request_ids_are_monotonic_and_unique() {
        let obs = ServerObs::new(LogFormat::Off, None);
        let a = obs.begin_request(Instant::now());
        let b = obs.begin_request(Instant::now());
        assert!(b.id > a.id);
    }

    #[test]
    fn endpoint_labels_normalise() {
        assert_eq!(endpoint_label("/v1/clean"), "/v1/clean");
        assert_eq!(endpoint_label("/v1/jobs/17"), "/v1/jobs/{id}");
        assert_eq!(endpoint_label("/v1/reviews"), "/v1/reviews");
        assert_eq!(endpoint_label("/v1/reviews/3/accept"), "/v1/reviews/{id}");
        assert_eq!(endpoint_label("/metrics"), "/metrics");
        assert_eq!(endpoint_label("/nope"), "other");
        for label in ENDPOINTS {
            assert_eq!(endpoint_label(label), label, "labels are fixed points");
        }
    }

    #[test]
    fn finished_requests_feed_histograms_ring_and_latency_json() {
        let obs = ServerObs::new(LogFormat::Off, None);
        let trace = obs.begin_request(Instant::now());
        trace.set_route("/v1/clean");
        let now = Instant::now();
        trace.recorder.record("head_parse", now, now, None);
        obs.finish_request(&trace, 200, 42);
        obs.record_stage("string_outlier", 5_000_000);
        obs.record_stage("string_outlier", 7_000_000);

        let recent = obs.recent_traces();
        assert_eq!(recent.len(), 1);
        assert_eq!((recent[0].route, recent[0].status, recent[0].bytes), ("/v1/clean", 200, 42));
        assert_eq!(recent[0].spans.len(), 1);

        let json = cocoon_llm::json::parse(&obs.latency_json()).expect("latency json parses");
        let endpoints = json.get("endpoints").unwrap();
        assert_eq!(endpoints.get("/v1/clean").unwrap().get("count").unwrap().as_f64(), Some(1.0));
        assert!(endpoints.get("/v1/jobs").is_none(), "empty endpoints are omitted");
        let stage = json.get("stages").unwrap().get("string_outlier").unwrap();
        assert_eq!(stage.get("count").unwrap().as_f64(), Some(2.0));
        let p99 = stage.get("p99_us").unwrap().as_f64().unwrap();
        assert!((6900.0..=7100.0).contains(&p99), "p99_us {p99}");
    }

    #[test]
    fn trace_ring_is_bounded() {
        let obs = ServerObs::new(LogFormat::Off, None);
        for _ in 0..(RECENT_TRACES + 10) {
            let trace = obs.begin_request(Instant::now());
            obs.finish_request(&trace, 200, 0);
        }
        let recent = obs.recent_traces();
        assert_eq!(recent.len(), RECENT_TRACES);
        assert_eq!(recent.last().unwrap().id, (RECENT_TRACES + 10) as u64);
    }

    #[test]
    fn prometheus_buckets_are_monotone_and_finish_at_count() {
        let obs = ServerObs::new(LogFormat::Off, None);
        for ms in [1u64, 3, 30, 300, 3_000, 30_000] {
            obs.record_stage("string_outlier", ms * 1_000_000);
        }
        let mut text = String::new();
        obs.prometheus_histograms(&mut text);
        let mut last = 0u64;
        let mut buckets = 0;
        for line in text.lines().filter(|l| l.starts_with("cocoon_stage_duration_seconds_bucket")) {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last, "bucket counts must be cumulative: {line}");
            last = value;
            buckets += 1;
        }
        assert_eq!(buckets, PROM_BUCKETS_SECS.len() + 1);
        assert_eq!(last, 6, "+Inf bucket equals the sample count");
        assert!(text.contains("cocoon_stage_duration_seconds_count{stage=\"string_outlier\"} 6"));
    }

    #[test]
    fn batch_fanout_records_into_active_subscribers_only() {
        let obs = Arc::new(ServerObs::new(LogFormat::Off, None));
        let active = Arc::new(obs.begin_request(Instant::now()));
        let parent = active.recorder.open("handler", Instant::now());
        let idle = Arc::new(obs.begin_request(Instant::now()));
        let event = BatchEvent {
            batch_size: 3,
            coalesced_total: 1,
            rate_limit_wait: Duration::from_micros(10),
            backend_elapsed: Duration::from_micros(40),
        };
        {
            let _sub = obs.batches.subscribe(Arc::clone(&active), parent);
            obs.batches.batch_dispatched(event.clone());
        }
        // After the guard drops the fanout no longer reaches the trace.
        obs.batches.batch_dispatched(event);
        let spans = active.recorder.finish();
        let batches: Vec<_> = spans.iter().filter(|s| s.name == "llm_batch").collect();
        assert_eq!(batches.len(), 1, "one span per event while subscribed");
        assert_eq!(batches[0].parent, Some(parent));
        assert!(batches[0].attrs.iter().any(|(k, v)| *k == "batch_size" && v == "3"));
        assert!(idle.recorder.is_empty(), "unsubscribed traces see nothing");
        assert_eq!(obs.batches.latency.count(), 2, "the shared histogram sees every batch");
    }

    #[test]
    fn with_current_trace_scopes_and_restores() {
        assert!(current_trace().is_none());
        let obs = ServerObs::new(LogFormat::Off, None);
        let trace = Arc::new(obs.begin_request(Instant::now()));
        with_current_trace(Some((Arc::clone(&trace), 0)), || {
            let (current, parent) = current_trace().expect("trace installed");
            assert_eq!(current.id, trace.id);
            assert_eq!(parent, 0);
        });
        assert!(current_trace().is_none(), "restored after the scope");
    }

    #[test]
    fn access_log_line_is_json_with_segment_micros() {
        let spans = vec![
            SpanRecord {
                name: "head_parse",
                start_ns: 0,
                duration_ns: 12_000,
                parent: None,
                attrs: vec![],
            },
            SpanRecord {
                name: "stage",
                start_ns: 12_000,
                duration_ns: 1_000,
                parent: Some(0),
                attrs: vec![],
            },
        ];
        let line = access_log_line(7, "/v1/clean", 200, 33, 99_000, &spans);
        let json = cocoon_llm::json::parse(&line).expect("log line parses as json");
        assert_eq!(json.get("request_id").unwrap().as_f64(), Some(7.0));
        assert_eq!(json.get("total_us").unwrap().as_f64(), Some(99.0));
        assert_eq!(
            json.get("segments").unwrap().get("head_parse").unwrap().as_f64(),
            Some(12.0),
            "only top-level segments are inlined"
        );
        assert!(json.get("segments").unwrap().get("stage").is_none());
        assert_eq!(json.get("spans").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn log_format_parses() {
        assert_eq!("json".parse::<LogFormat>(), Ok(LogFormat::Json));
        assert_eq!("off".parse::<LogFormat>(), Ok(LogFormat::Off));
        assert!("yaml".parse::<LogFormat>().is_err());
    }
}
