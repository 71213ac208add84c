//! The metrics registry behind `GET /v1/metrics` and `GET /metrics`.
//!
//! Every counter and gauge the server reports is declared once, as a row
//! of one table (`SERIES`): its JSON section and key, its Prometheus name,
//! help text and kind, and where its value comes from. Two walkers over
//! that table render the JSON body and the Prometheus exposition, so the
//! two formats cannot drift apart. Latency histograms are `crate::obs`'s
//! to render.
//!
//! A value comes from one of two places. Request-path counts live in
//! [`Metrics`] slots, plain relaxed atomics: a render racing a request may
//! be one count stale, never torn. Everything else is read live at render
//! time: the work-queue depth, the shared model stack's cache and
//! dispatcher figures, and the job and review stores.

use crate::http::json_escape;
use crate::jobs::JobCounts;
use crate::reviews::ReviewCounts;
use crate::server::AppState;
use cocoon_llm::{ChatModel, DispatcherStats};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A request-path counter slot in [`Metrics`]. Each one backs exactly one
/// row of the registry table, which carries its help text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// `requests.total`: every routed request.
    Requests,
    /// `requests.clean`: `POST /v1/clean`.
    Clean,
    /// `requests.jobs_submitted`: `POST /v1/jobs`.
    JobsSubmitted,
    /// `requests.jobs_polled`: `GET /v1/jobs/{id}`.
    JobsPolled,
    /// `requests.jobs_deleted`: `DELETE /v1/jobs/{id}`.
    JobsDeleted,
    /// `requests.datasets`: `GET /v1/datasets`.
    Datasets,
    /// `requests.metrics`: `GET /v1/metrics` and `GET /metrics`.
    MetricsReads,
    /// `requests.responses_4xx`.
    Responses4xx,
    /// `requests.responses_5xx`.
    Responses5xx,
    /// `accept.accepted`: connections taken into an event loop.
    ConnectionsAccepted,
    /// `accept.rejected_busy`: fast 503s at either saturation valve.
    ConnectionsRejected,
    /// `connections.open`, kept by [`Metrics::conn_opened`] and
    /// [`Metrics::conn_closed`].
    ConnectionsOpen,
    /// `connections.peak`: the high-water mark of `ConnectionsOpen`.
    ConnectionsPeak,
    /// `connections.idle_reaped`: the slow-loris counter.
    IdleReaped,
    /// `connections.partial_writes`.
    PartialWrites,
    /// `reviews.listed`: `GET /v1/reviews`.
    ReviewsListed,
    /// `reviews.accept_requests`: `POST /v1/reviews/{id}/accept`.
    ReviewAccepts,
    /// `reviews.reject_requests`: `POST /v1/reviews/{id}/reject`.
    ReviewRejects,
}

const SLOTS: usize = Counter::ReviewRejects as usize + 1;

/// The request-path counters: one relaxed atomic per [`Counter`].
#[derive(Debug, Default)]
pub struct Metrics {
    slots: [AtomicUsize; SLOTS],
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds one to `counter`.
    pub fn count(&self, counter: Counter) {
        self.slots[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// The current value of `counter`.
    pub fn get(&self, counter: Counter) -> usize {
        self.slots[counter as usize].load(Ordering::Relaxed)
    }

    /// Buckets a response status into the 4xx or 5xx counter; other
    /// statuses count nothing.
    pub fn record_status(&self, status: u16) {
        match status {
            400..=499 => self.count(Counter::Responses4xx),
            500..=599 => self.count(Counter::Responses5xx),
            _ => {}
        }
    }

    /// Registers a connection entering an event loop: bumps the open gauge
    /// and folds it into the peak with an explicit compare-and-swap loop —
    /// each raiser only ever replaces a *smaller* observed peak, so
    /// concurrent opens can interleave in any order without the high-water
    /// mark under-counting.
    pub fn conn_opened(&self) {
        let open =
            self.slots[Counter::ConnectionsOpen as usize].fetch_add(1, Ordering::Relaxed) + 1;
        let peak = &self.slots[Counter::ConnectionsPeak as usize];
        let mut seen = peak.load(Ordering::Relaxed);
        while seen < open {
            match peak.compare_exchange_weak(seen, open, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(current) => seen = current,
            }
        }
    }

    /// Registers a connection leaving an event loop.
    pub fn conn_closed(&self) {
        self.slots[Counter::ConnectionsOpen as usize].fetch_sub(1, Ordering::Relaxed);
    }
}

/// The Prometheus metric type of a series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Only ever rises.
    Counter,
    /// Moves both ways.
    Gauge,
}

/// Where a series reads its value at render time.
#[derive(Clone, Copy)]
enum Source {
    /// A request-path counter slot.
    Slot(Counter),
    /// A figure read live; `None` renders as JSON `null` and emits no
    /// Prometheus sample.
    Live(fn(&Reading<'_>) -> Option<usize>),
    /// A JSON-only string, already escaped; Prometheus carries no text.
    Text(fn(&Reading<'_>) -> String),
}

/// One declared series.
struct Series {
    /// JSON section, `.`-separated when nested (`"llm.dispatcher"`).
    section: &'static str,
    /// JSON key within the section.
    key: &'static str,
    /// Prometheus metric name.
    name: &'static str,
    /// Prometheus `# HELP` text.
    help: &'static str,
    kind: Kind,
    source: Source,
}

const fn counter(
    section: &'static str,
    key: &'static str,
    name: &'static str,
    source: Source,
    help: &'static str,
) -> Series {
    Series { section, key, name, help, kind: Kind::Counter, source }
}

const fn gauge(
    section: &'static str,
    key: &'static str,
    name: &'static str,
    source: Source,
    help: &'static str,
) -> Series {
    Series { section, key, name, help, kind: Kind::Gauge, source }
}

/// Every series the server reports, in `/v1/metrics` key order. Series
/// added since the first thirteen are named `cocoon_<section>_<key>`,
/// with `_total` on counters.
#[rustfmt::skip]
const SERIES: &[Series] = {
    use Counter as C;
    use Source::{Live, Slot, Text};
    &[
    counter("requests", "total", "cocoon_requests_total", Slot(C::Requests),
        "Requests routed, all endpoints."),
    counter("requests", "clean", "cocoon_requests_clean_total", Slot(C::Clean),
        "POST /v1/clean requests."),
    counter("requests", "jobs_submitted", "cocoon_requests_jobs_submitted_total",
        Slot(C::JobsSubmitted), "POST /v1/jobs submissions, refused ones included."),
    counter("requests", "jobs_polled", "cocoon_requests_jobs_polled_total", Slot(C::JobsPolled),
        "GET /v1/jobs/{id} polls."),
    counter("requests", "jobs_deleted", "cocoon_requests_jobs_deleted_total",
        Slot(C::JobsDeleted), "DELETE /v1/jobs/{id} requests, refused ones included."),
    counter("requests", "datasets", "cocoon_requests_datasets_total", Slot(C::Datasets),
        "GET /v1/datasets requests."),
    counter("requests", "metrics", "cocoon_requests_metrics_total", Slot(C::MetricsReads),
        "GET /v1/metrics and GET /metrics requests."),
    counter("requests", "responses_4xx", "cocoon_responses_4xx_total", Slot(C::Responses4xx),
        "Responses with a 4xx status."),
    counter("requests", "responses_5xx", "cocoon_responses_5xx_total", Slot(C::Responses5xx),
        "Responses with a 5xx status."),
    counter("accept", "accepted", "cocoon_connections_accepted_total",
        Slot(C::ConnectionsAccepted), "Connections accepted into an event loop."),
    counter("accept", "rejected_busy", "cocoon_connections_rejected_total",
        Slot(C::ConnectionsRejected), "Connections refused with a fast 503 at saturation."),
    gauge("accept", "queue_depth", "cocoon_work_queue_depth", Live(|r| Some(r.state.work.depth())),
        "Complete requests waiting for a worker."),
    gauge("accept", "queue_capacity", "cocoon_accept_queue_capacity",
        Live(|r| Some(r.state.work.capacity)), "Complete requests the work queue holds before 503."),
    gauge("connections", "open", "cocoon_connections_open", Slot(C::ConnectionsOpen),
        "Connections open right now."),
    gauge("connections", "peak", "cocoon_connections_peak", Slot(C::ConnectionsPeak),
        "High-water mark of open connections."),
    counter("connections", "idle_reaped", "cocoon_connections_idle_reaped_total",
        Slot(C::IdleReaped), "Connections reclaimed for sitting idle past the timeout."),
    counter("connections", "partial_writes", "cocoon_connections_partial_writes_total",
        Slot(C::PartialWrites), "Responses that needed more than one write pass."),
    gauge("connections", "event_threads", "cocoon_connections_event_threads",
        Live(|r| Some(r.state.shards.len())), "Event threads owning the sockets."),
    Series { section: "llm", key: "model", name: "", help: "", kind: Kind::Gauge,
        source: Text(|r| json_escape(r.state.llm.model_name())) },
    counter("llm", "cache_hits", "cocoon_llm_cache_hits_total", Live(|r| Some(r.state.llm.hits())),
        "Completion cache hits."),
    counter("llm", "cache_misses", "cocoon_llm_cache_misses_total",
        Live(|r| Some(r.state.llm.misses())), "Completion cache misses."),
    counter("llm", "cache_evictions", "cocoon_llm_cache_evictions_total",
        Live(|r| Some(r.state.llm.evictions())), "Completion cache entries evicted by the LRU bound."),
    gauge("llm", "cached_responses", "cocoon_llm_cached_responses",
        Live(|r| Some(r.state.llm.len())), "Completions held in the cache."),
    gauge("llm", "cache_capacity", "cocoon_llm_cache_capacity", Live(|r| r.state.llm.capacity()),
        "LRU bound on the completion cache; no sample when unbounded."),
    counter("llm.dispatcher", "coalesced", "cocoon_llm_dispatcher_coalesced_total",
        Live(|r| Some(r.dispatcher.coalesced)), "Requests merged into an identical pending one."),
    counter("llm.dispatcher", "batches", "cocoon_llm_dispatcher_batches_total",
        Live(|r| Some(r.dispatcher.batches)), "Batches issued to the model backend."),
    counter("llm.dispatcher", "batched_prompts", "cocoon_llm_dispatcher_batched_prompts_total",
        Live(|r| Some(r.dispatcher.batched_prompts)), "Distinct prompts those batches carried."),
    counter("llm.dispatcher", "rate_limit_waits", "cocoon_llm_dispatcher_rate_limit_waits_total",
        Live(|r| Some(r.dispatcher.rate_limit_waits)), "Dispatches that slept on the rate limiter."),
    counter("llm.dispatcher", "rate_limited_ms", "cocoon_llm_dispatcher_rate_limited_ms_total",
        Live(|r| Some(r.dispatcher.rate_limited_ms as usize)),
        "Milliseconds dispatches slept on the rate limiter."),
    gauge("jobs", "queued", "cocoon_jobs_queued", Live(|r| Some(r.jobs.queued)),
        "Jobs waiting in the async queue."),
    gauge("jobs", "running", "cocoon_jobs_running", Live(|r| Some(r.jobs.running)),
        "Jobs being cleaned right now."),
    gauge("jobs", "done", "cocoon_jobs_done", Live(|r| Some(r.jobs.done)),
        "Finished jobs retained for polling."),
    gauge("jobs", "failed", "cocoon_jobs_failed", Live(|r| Some(r.jobs.failed)),
        "Failed jobs retained for polling."),
    counter("jobs", "expired", "cocoon_jobs_expired_total", Live(|r| Some(r.jobs.expired)),
        "Finished jobs removed by the TTL sweep."),
    counter("jobs", "deleted", "cocoon_jobs_deleted_total", Live(|r| Some(r.jobs.deleted)),
        "Jobs removed by DELETE /v1/jobs/{id}."),
    gauge("jobs", "queue_depth", "cocoon_jobs_queue_depth", Live(|r| Some(r.state.jobs.depth())),
        "Entries in the async job queue."),
    counter("reviews", "listed", "cocoon_reviews_listed_total", Slot(C::ReviewsListed),
        "GET /v1/reviews requests."),
    counter("reviews", "accept_requests", "cocoon_reviews_accept_requests_total",
        Slot(C::ReviewAccepts), "POST /v1/reviews/{id}/accept requests."),
    counter("reviews", "reject_requests", "cocoon_reviews_reject_requests_total",
        Slot(C::ReviewRejects), "POST /v1/reviews/{id}/reject requests."),
    gauge("reviews", "pending", "cocoon_reviews_pending", Live(|r| Some(r.reviews.pending)),
        "Low-confidence repairs waiting for a reviewer."),
    gauge("reviews", "accepted", "cocoon_reviews_accepted", Live(|r| Some(r.reviews.accepted)),
        "Accepted review items retained."),
    gauge("reviews", "rejected", "cocoon_reviews_rejected", Live(|r| Some(r.reviews.rejected)),
        "Rejected review items retained."),
    counter("reviews", "dropped", "cocoon_reviews_dropped_total", Live(|r| Some(r.reviews.dropped)),
        "Review runs dropped by eviction, TTL or job deletion."),
    ]
};

/// The live figures one render reads. Each store is read once, so a
/// section's figures come from one instant.
struct Reading<'a> {
    state: &'a AppState,
    dispatcher: DispatcherStats,
    jobs: JobCounts,
    reviews: ReviewCounts,
}

impl<'a> Reading<'a> {
    fn new(state: &'a AppState) -> Self {
        Reading {
            state,
            dispatcher: state.llm.inner().stats(),
            jobs: state.jobs.counts(),
            reviews: state.reviews.counts(),
        }
    }

    /// A numeric series' value; `None` for an absent figure or a text row.
    fn number(&self, source: Source) -> Option<usize> {
        match source {
            Source::Slot(counter) => Some(self.state.metrics.get(counter)),
            Source::Live(read) => read(self),
            Source::Text(_) => None,
        }
    }
}

impl AppState {
    /// The `/v1/metrics` body: every registry series under its JSON
    /// section, in table order, then the `latency` section.
    pub fn metrics_body(&self) -> String {
        let reading = Reading::new(self);
        let mut out = String::from("{");
        let mut open: Vec<&str> = Vec::new();
        let mut sep = "";
        for series in SERIES {
            let path: Vec<&str> = series.section.split('.').collect();
            let shared = open.iter().zip(&path).take_while(|(a, b)| a == b).count();
            out.extend(std::iter::repeat_n('}', open.len() - shared));
            for part in &path[shared..] {
                out.push_str(&format!("{sep}\"{part}\": {{"));
                sep = "";
            }
            open = path;
            let value = match series.source {
                Source::Text(read) => read(&reading),
                source => reading.number(source).map_or("null".to_string(), |v| v.to_string()),
            };
            out.push_str(&format!("{sep}\"{}\": {value}", series.key));
            sep = ", ";
        }
        out.extend(std::iter::repeat_n('}', open.len()));
        out.push_str(&format!("{sep}\"latency\": {}}}", self.obs.latency_json()));
        out
    }

    /// The `GET /metrics` body: every numeric registry series in
    /// Prometheus text exposition format (`text/plain; version=0.0.4`),
    /// then the latency histograms.
    pub fn prometheus_body(&self) -> String {
        let reading = Reading::new(self);
        let mut out = String::with_capacity(8192);
        for series in SERIES {
            if let Source::Text(_) = series.source {
                continue;
            }
            let (name, help) = (series.name, series.help);
            let kind = match series.kind {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
            };
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            if let Some(value) = reading.number(series.source) {
                out.push_str(&format!("{name} {value}\n"));
            }
        }
        self.obs.prometheus_histograms(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_request, RequestReader};
    use crate::server::ServerConfig;
    use cocoon_llm::Json;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.count(Counter::Requests);
        m.count(Counter::Requests);
        m.count(Counter::Clean);
        m.count(Counter::ConnectionsAccepted);
        m.count(Counter::ConnectionsRejected);
        m.count(Counter::JobsDeleted);
        m.count(Counter::ReviewsListed);
        m.count(Counter::ReviewAccepts);
        m.count(Counter::ReviewRejects);
        m.record_status(200);
        m.record_status(404);
        m.record_status(500);
        assert_eq!(m.get(Counter::Requests), 2);
        assert_eq!(m.get(Counter::Clean), 1);
        assert_eq!(
            (m.get(Counter::ConnectionsAccepted), m.get(Counter::ConnectionsRejected)),
            (1, 1)
        );
        assert_eq!(m.get(Counter::JobsDeleted), 1);
        let reviews = [Counter::ReviewsListed, Counter::ReviewAccepts, Counter::ReviewRejects];
        assert_eq!(reviews.map(|c| m.get(c)), [1, 1, 1]);
        assert_eq!((m.get(Counter::Responses4xx), m.get(Counter::Responses5xx)), (1, 1));
    }

    #[test]
    fn open_gauge_tracks_peak() {
        let m = Metrics::new();
        m.conn_opened();
        m.conn_opened();
        m.conn_opened();
        assert_eq!(m.get(Counter::ConnectionsOpen), 3);
        m.conn_closed();
        m.conn_closed();
        assert_eq!((m.get(Counter::ConnectionsOpen), m.get(Counter::ConnectionsPeak)), (1, 3));
        m.count(Counter::IdleReaped);
        m.count(Counter::PartialWrites);
        assert_eq!((m.get(Counter::IdleReaped), m.get(Counter::PartialWrites)), (1, 1));
    }

    #[test]
    fn concurrent_opens_never_undercount_the_peak() {
        // All opens strictly precede all closes, so the true high-water
        // mark is exactly the total open count; the CAS loop must land on
        // it whatever the interleaving.
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        m.conn_opened();
                    }
                });
            }
        });
        assert_eq!(m.get(Counter::ConnectionsPeak), 4000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        m.conn_closed();
                    }
                });
            }
        });
        let open_peak = (m.get(Counter::ConnectionsOpen), m.get(Counter::ConnectionsPeak));
        assert_eq!(open_peak, (0, 4000), "peak survives closes");
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        m.count(Counter::Requests);
                    }
                });
            }
        });
        assert_eq!(m.get(Counter::Requests), 4000);
    }

    fn state(cache_capacity: Option<usize>) -> AppState {
        let config =
            ServerConfig { addr: "127.0.0.1:0".into(), cache_capacity, ..Default::default() };
        AppState::new(&config)
    }

    /// Every numeric leaf of `json` outside `latency`, as `(section, key, value)`.
    fn numeric_leaves(json: &Json, section: &str, out: &mut Vec<(String, String, Option<f64>)>) {
        for (key, value) in json.as_object().expect("object") {
            match value {
                Json::Object(_) if key != "latency" => {
                    let nested =
                        if section.is_empty() { key.clone() } else { format!("{section}.{key}") };
                    numeric_leaves(value, &nested, out);
                }
                Json::Number(n) => out.push((section.to_string(), key.clone(), Some(*n))),
                Json::Null => out.push((section.to_string(), key.clone(), None)),
                _ => {}
            }
        }
    }

    #[test]
    fn every_json_number_has_exactly_one_prometheus_series() {
        for capacity in [Some(16 * 1024), None] {
            let state = state(capacity);
            let body = r#"{"csv": "id,lang\n1,eng\n2,eng\n3,eng\n4,English\n"}"#;
            let raw =
                format!("POST /v1/clean HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
            let request = read_request(&mut RequestReader::new(raw.as_bytes(), 1024)).unwrap();
            assert_eq!(crate::api::route(&state, &request).status, 200);
            let json = cocoon_llm::json::parse(&state.metrics_body()).unwrap();
            let prometheus = state.prometheus_body();
            let mut leaves = Vec::new();
            numeric_leaves(&json, "", &mut leaves);
            assert_eq!(leaves.len(), 42);
            for (section, key, value) in &leaves {
                let series = SERIES.iter().find(|s| s.section == section && s.key == key);
                let name = series.unwrap_or_else(|| panic!("{section}.{key} has no row")).name;
                let types = prometheus.matches(&format!("# TYPE {name} ")).count();
                assert_eq!(types, 1, "{name}");
                let sample = prometheus
                    .lines()
                    .find_map(|line| line.strip_prefix(&format!("{name} ")))
                    .map(|v| v.parse::<f64>().unwrap());
                assert_eq!(sample, *value, "{name} agrees with {section}.{key}");
            }
            let types = prometheus.lines().filter(|l| l.starts_with("# TYPE ")).count();
            assert_eq!(types, leaves.len() + 2, "42 series plus the two latency histograms");
        }
        let mut names: Vec<&str> =
            SERIES.iter().map(|s| s.name).filter(|n| !n.is_empty()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 42, "series names are unique");
    }

    #[test]
    fn the_first_thirteen_series_keep_their_names_help_and_types() {
        let prometheus = state(Some(16 * 1024)).prometheus_body();
        for (name, kind, help) in [
            ("cocoon_requests_total", "counter", "Requests routed, all endpoints."),
            ("cocoon_responses_4xx_total", "counter", "Responses with a 4xx status."),
            ("cocoon_responses_5xx_total", "counter", "Responses with a 5xx status."),
            (
                "cocoon_connections_accepted_total",
                "counter",
                "Connections accepted into an event loop.",
            ),
            (
                "cocoon_connections_rejected_total",
                "counter",
                "Connections refused with a fast 503 at saturation.",
            ),
            ("cocoon_connections_open", "gauge", "Connections open right now."),
            ("cocoon_connections_peak", "gauge", "High-water mark of open connections."),
            ("cocoon_work_queue_depth", "gauge", "Complete requests waiting for a worker."),
            ("cocoon_jobs_queued", "gauge", "Jobs waiting in the async queue."),
            ("cocoon_jobs_running", "gauge", "Jobs being cleaned right now."),
            ("cocoon_reviews_pending", "gauge", "Low-confidence repairs waiting for a reviewer."),
            ("cocoon_llm_cache_hits_total", "counter", "Completion cache hits."),
            ("cocoon_llm_cache_misses_total", "counter", "Completion cache misses."),
        ] {
            let block = format!("# HELP {name} {help}\n# TYPE {name} {kind}\n{name} 0\n");
            assert!(prometheus.contains(&block), "{name}");
        }
    }

    #[test]
    fn every_slot_backs_exactly_one_series() {
        let mut rows = [0usize; SLOTS];
        for series in SERIES {
            if let Source::Slot(counter) = series.source {
                rows[counter as usize] += 1;
            }
        }
        assert_eq!(rows, [1; SLOTS]);
    }
}
