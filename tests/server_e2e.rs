//! Loopback end-to-end tests of `cocoon-server`: N concurrent clients, each
//! response byte-identical to a direct `Cleaner` run; shared-dispatcher
//! coalescing and rate limiting visible in `/v1/metrics`; the async job
//! lifecycle; and HTTP error statuses over a real socket.

use cocoon_core::Cleaner;
use cocoon_llm::{DispatcherConfig, Json, RateLimit, SimLlm};
use cocoon_server::{Counter, Server, ServerConfig, ServerHandle};
use cocoon_table::csv;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The multi-issue fixture shared with the pipeline tests: string
/// outliers, pattern outliers, DMVs, casts and numeric outliers at once.
fn messy_csv() -> String {
    let mut text = String::from("record_id,lang,admission,EmergencyService,rating\n");
    for i in 0..20 {
        text.push_str(&format!("r{i},eng,01/02/2003,yes,7.5\n"));
    }
    text.push_str("r20,English,2003-04-05,no,8.0\n");
    text.push_str("r21,eng,01/02/2003,N/A,99.0\n");
    text
}

fn clean_body(csv_text: &str) -> String {
    format!("{{\"csv\": {}}}", cocoon_llm::json::escape(csv_text))
}

/// Minimal HTTP client: one request per connection (`Connection: close`, so
/// EOF frames the response). Returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    http_with_headers(addr, method, path, &[], body)
}

/// Like [`http`], with extra request headers (name, value).
fn http_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: cocoon\r\nConnection: close\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    match body {
        Some(body) => request.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len())),
        None => request.push_str("\r\n"),
    }
    stream.write_all(request.as_bytes()).expect("send request");
    read_response(&mut stream)
}

/// Reads a `Connection: close` response to EOF. Returns (status, body).
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, Json) {
    let (status, body) = http(addr, "GET", path, None);
    (status, cocoon_llm::json::parse(&body).unwrap_or_else(|e| panic!("{path}: {e}: {body}")))
}

/// Reads one `Content-Length`-framed response off a keep-alive connection.
/// Returns (status, body).
fn read_framed_response(stream: &mut TcpStream) -> (u16, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("head byte");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf-8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {head:?}"));
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("content-length")
        .trim()
        .parse()
        .expect("length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

/// Runs `test` against a freshly bound server, stopping it afterwards —
/// including when `test` panics: without the catch, the scope would wait
/// forever on the still-serving worker threads and a failing assertion
/// would hang the suite instead of failing it.
fn with_server(config: ServerConfig, test: impl FnOnce(&ServerHandle)) {
    let server = Server::bind(config).expect("bind");
    let handle = server.handle().expect("handle");
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| test(&handle)));
        handle.stop();
        serving.join().expect("serve thread").expect("serve result");
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 8,
        job_workers: 1,
        ..ServerConfig::default()
    }
}

#[test]
fn concurrent_cleans_are_byte_identical_to_direct_runs() {
    // A wide batch window plus a tight token bucket: concurrent identical
    // prompts must single-flight, and dispatches must visibly wait.
    let mut config = test_config();
    config.dispatcher = DispatcherConfig {
        batch_window: Duration::from_millis(25),
        rate_limit: Some(RateLimit::new(200.0, 1.0)),
        ..DispatcherConfig::default()
    };
    let csv_text = messy_csv();
    let direct = Cleaner::new(SimLlm::new())
        .clean(&csv::read_str(&csv_text).expect("fixture parses"))
        .expect("direct clean");
    let expected_csv = csv::write_str(&direct.table);
    let expected_script = direct.sql_script();
    let body = clean_body(&csv_text);

    with_server(config, |handle| {
        let addr = handle.addr();
        const CLIENTS: usize = 8;
        let responses: Vec<(u16, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| scope.spawn(|| http(addr, "POST", "/v1/clean", Some(&body))))
                .collect();
            handles.into_iter().map(|h| h.join().expect("client")).collect()
        });
        let first = &responses[0].1;
        for (status, response_body) in &responses {
            assert_eq!(*status, 200, "{response_body}");
            assert_eq!(response_body, first, "all served responses are byte-identical");
            let json = cocoon_llm::json::parse(response_body).expect("response json");
            assert_eq!(
                json.get("cleaned_csv").and_then(Json::as_str),
                Some(expected_csv.as_str()),
                "served clean table == direct library run"
            );
            assert_eq!(
                json.get("sql_script").and_then(Json::as_str),
                Some(expected_script.as_str()),
                "served SQL artifact == direct library run"
            );
            assert_eq!(
                json.get("total_changes"),
                Some(&Json::Number(direct.total_changes() as f64))
            );
        }

        let (status, metrics) = get_json(addr, "/v1/metrics");
        assert_eq!(status, 200);
        let requests = metrics.get("requests").expect("requests section");
        assert_eq!(requests.get("clean").and_then(Json::as_f64), Some(CLIENTS as f64));
        let dispatcher =
            metrics.get("llm").and_then(|l| l.get("dispatcher")).expect("dispatcher section");
        let stat = |name: &str| {
            dispatcher.get(name).and_then(Json::as_f64).unwrap_or_else(|| panic!("{name}"))
        };
        assert!(
            stat("coalesced") >= 1.0,
            "concurrent identical prompts must single-flight: {dispatcher}"
        );
        assert!(stat("batches") >= 1.0, "{dispatcher}");
        assert!(
            stat("rate_limit_waits") >= 1.0,
            "the token bucket must have enforced waits: {dispatcher}"
        );
        let llm = metrics.get("llm").unwrap();
        // With cross-batch single-flight the 8 concurrent cleans can run in
        // perfect lockstep — every lookup misses and coalesces instead of
        // hitting — so cache sharing is proven by a follow-up clean, which
        // must be served entirely from the shared cache.
        let misses_after_wave = llm.get("cache_misses").and_then(Json::as_f64).unwrap();
        let (status, _) = http(addr, "POST", "/v1/clean", Some(&body));
        assert_eq!(status, 200);
        let (_, metrics) = get_json(addr, "/v1/metrics");
        let llm = metrics.get("llm").unwrap();
        assert_eq!(
            llm.get("cache_misses").and_then(Json::as_f64),
            Some(misses_after_wave),
            "a ninth identical clean replays from the shared cache: {llm}"
        );
        assert!(
            llm.get("cache_hits").and_then(Json::as_f64).unwrap() >= 1.0,
            "the follow-up clean hit the process-wide cache: {llm}"
        );
    });
}

#[test]
fn async_jobs_match_the_synchronous_endpoint() {
    let config = test_config();
    let csv_text = messy_csv();
    let body = clean_body(&csv_text);
    with_server(config, |handle| {
        let addr = handle.addr();
        let (status, sync_body) = http(addr, "POST", "/v1/clean", Some(&body));
        assert_eq!(status, 200);

        let (status, submit_body) = http(addr, "POST", "/v1/jobs", Some(&body));
        assert_eq!(status, 202, "{submit_body}");
        let submitted = cocoon_llm::json::parse(&submit_body).expect("submit json");
        assert_eq!(submitted.get("status").and_then(Json::as_str), Some("queued"));
        let poll_path =
            submitted.get("poll").and_then(Json::as_str).expect("poll path").to_string();

        let deadline = Instant::now() + Duration::from_secs(30);
        let finished = loop {
            let (status, view) = get_json(addr, &poll_path);
            assert_eq!(status, 200);
            match view.get("status").and_then(Json::as_str) {
                Some("done") => break view,
                Some("failed") => panic!("job failed: {view}"),
                _ => {
                    assert!(Instant::now() < deadline, "job did not finish: {view}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };
        let progress = finished.get("progress").expect("progress");
        assert_eq!(progress.get("finished").and_then(Json::as_bool), Some(true));
        assert_eq!(progress.get("total_stages").and_then(Json::as_f64), Some(8.0));
        assert_eq!(progress.get("completed_stages").and_then(Json::as_f64), Some(8.0));
        // The job result is exactly the synchronous response.
        let sync_json = cocoon_llm::json::parse(&sync_body).expect("sync json");
        assert_eq!(finished.get("result"), Some(&sync_json));

        let (_, metrics) = get_json(addr, "/v1/metrics");
        let jobs = metrics.get("jobs").expect("jobs section");
        assert_eq!(jobs.get("done").and_then(Json::as_f64), Some(1.0));
        assert_eq!(jobs.get("queue_depth").and_then(Json::as_f64), Some(0.0));
    });
}

#[test]
fn datasets_endpoint_lists_the_benchmark_catalog() {
    with_server(test_config(), |handle| {
        let (status, body) = get_json(handle.addr(), "/v1/datasets");
        assert_eq!(status, 200);
        let datasets = body.get("datasets").and_then(Json::as_array).expect("array");
        let names: Vec<&str> = datasets.iter().filter_map(|d| d.get("name")?.as_str()).collect();
        assert_eq!(names, ["Hospital", "Flights", "Beers", "Rayyan", "Movies"]);
    });
}

#[test]
fn protocol_and_routing_errors_over_the_wire() {
    let mut config = test_config();
    config.max_body = 256;
    with_server(config, |handle| {
        let addr = handle.addr();
        assert_eq!(http(addr, "GET", "/nope", None).0, 404);
        assert_eq!(http(addr, "GET", "/v1/clean", None).0, 405);
        assert_eq!(http(addr, "POST", "/v1/clean", Some("{not json")).0, 400);
        assert_eq!(http(addr, "POST", "/v1/clean", Some("{}")).0, 400);
        assert_eq!(http(addr, "GET", "/v1/jobs/12345", None).0, 404);
        // A body over the configured cap is refused with 413.
        let big = clean_body(&messy_csv());
        assert!(big.len() > 256);
        let (status, body) = http(addr, "POST", "/v1/clean", Some(&big));
        assert_eq!(status, 413, "{body}");
        // The error responses and oversized bodies all surface in metrics.
        let (_, metrics) = get_json(addr, "/v1/metrics");
        let requests = metrics.get("requests").expect("requests");
        assert!(requests.get("responses_4xx").and_then(Json::as_f64).unwrap() >= 5.0);
    });
}

#[test]
fn csv_ingest_and_response_are_byte_equivalent_to_the_json_path() {
    // The acceptance bar: on Movies (the paper's largest benchmark), a
    // `text/csv` in → `text/csv` out clean must be byte-identical to the
    // `cleaned_csv` field the JSON path reports for the same table.
    let movies_csv = csv::write_str(&cocoon_datasets::movies::generate().dirty);
    with_server(test_config(), |handle| {
        let addr = handle.addr();
        let (status, json_body) = http(addr, "POST", "/v1/clean", Some(&clean_body(&movies_csv)));
        assert_eq!(status, 200, "{json_body}");
        let json = cocoon_llm::json::parse(&json_body).expect("json response");
        let expected_csv = json.get("cleaned_csv").and_then(Json::as_str).expect("cleaned_csv");

        let (status, csv_out) = http_with_headers(
            addr,
            "POST",
            "/v1/clean",
            &[("Content-Type", "text/csv"), ("Accept", "text/csv")],
            Some(&movies_csv),
        );
        assert_eq!(status, 200, "{csv_out}");
        assert_eq!(csv_out, expected_csv, "CSV-in/CSV-out == the JSON path's cleaned_csv");

        // CSV in, JSON out (no Accept header): the full report, identical
        // to the JSON-ingest report.
        let (status, mixed) = http_with_headers(
            addr,
            "POST",
            "/v1/clean",
            &[("Content-Type", "text/csv")],
            Some(&movies_csv),
        );
        assert_eq!(status, 200);
        assert_eq!(mixed, json_body, "ingest format does not leak into the JSON report");

        // JSON in, CSV out.
        let (status, csv_from_json) = http_with_headers(
            addr,
            "POST",
            "/v1/clean",
            &[("Accept", "text/csv")],
            Some(&clean_body(&movies_csv)),
        );
        assert_eq!(status, 200);
        assert_eq!(csv_from_json, expected_csv);
    });
}

#[test]
fn streamed_csv_profiling_is_invisible_in_the_output() {
    // Streamed `text/csv` ingest profiles the table chunk-by-chunk as body
    // bytes arrive and hands the merged profile to the pipeline. With a
    // tiny chunk size (hundreds of partial merges on Movies) the cleaned
    // output must stay byte-identical to the materialised JSON path *and*
    // to a direct in-process `Cleaner` run — the merge-equivalence
    // guarantee, held to over the wire.
    let movies = cocoon_datasets::movies::generate().dirty;
    let movies_csv = csv::write_str(&movies);
    let direct = Cleaner::new(SimLlm::new()).clean(&movies).expect("direct clean");
    let expected_csv = csv::write_str(&direct.table);
    let config = ServerConfig { profile_chunk_rows: 3, ..test_config() };
    with_server(config, |handle| {
        let addr = handle.addr();
        let (status, streamed) = http_with_headers(
            addr,
            "POST",
            "/v1/clean",
            &[("Content-Type", "text/csv"), ("Accept", "text/csv")],
            Some(&movies_csv),
        );
        assert_eq!(status, 200, "{streamed}");
        assert_eq!(streamed, expected_csv, "streamed-profiled clean == direct Cleaner run");

        let (status, json_body) = http(addr, "POST", "/v1/clean", Some(&clean_body(&movies_csv)));
        assert_eq!(status, 200, "{json_body}");
        let json = cocoon_llm::json::parse(&json_body).expect("json response");
        let from_json = json.get("cleaned_csv").and_then(Json::as_str).expect("cleaned_csv");
        assert_eq!(streamed, from_json, "profiled and unprofiled ingest paths agree");
    });
}

#[test]
fn chunked_csv_upload_streams_through() {
    // A chunked transfer (no Content-Length anywhere) must parse
    // incrementally and clean identically — the streaming-friendly shape.
    let csv_text = messy_csv();
    with_server(test_config(), |handle| {
        let addr = handle.addr();
        let (_, json_body) = http(addr, "POST", "/v1/clean", Some(&clean_body(&csv_text)));
        let expected = cocoon_llm::json::parse(&json_body)
            .expect("json response")
            .get("cleaned_csv")
            .and_then(Json::as_str)
            .expect("cleaned_csv")
            .to_string();

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                b"POST /v1/clean HTTP/1.1\r\nHost: cocoon\r\nConnection: close\r\n\
                  Content-Type: text/csv\r\nAccept: text/csv\r\n\
                  Transfer-Encoding: chunked\r\n\r\n",
            )
            .expect("send head");
        // Dribble the CSV in small chunks with pauses, like a real
        // streaming producer.
        for piece in csv_text.as_bytes().chunks(64) {
            let chunk = format!("{:x}\r\n", piece.len());
            stream.write_all(chunk.as_bytes()).expect("chunk size");
            stream.write_all(piece).expect("chunk data");
            stream.write_all(b"\r\n").expect("chunk end");
            std::thread::sleep(Duration::from_millis(1));
        }
        stream.write_all(b"0\r\n\r\n").expect("final chunk");
        let (status, body) = read_response(&mut stream);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, expected);
    });
}

#[test]
fn malformed_csv_ingest_is_a_client_error() {
    with_server(test_config(), |handle| {
        let addr = handle.addr();
        for (bad, why) in [
            ("a\n\"oops\n", "unterminated quote"),
            ("a\nab\"c\n", "quote mid-field"),
            ("a,b\n", "no rows"),
        ] {
            let (status, body) = http_with_headers(
                addr,
                "POST",
                "/v1/clean",
                &[("Content-Type", "text/csv")],
                Some(bad),
            );
            assert_eq!(status, 400, "{why}: {body}");
        }
    });
}

#[test]
fn stalled_client_costs_no_worker_and_overload_is_refused() {
    // One worker, a one-deep request queue, a short slow-loris bound, and
    // a throttled model. In the readiness core a silent client is parked
    // parser state inside the event loop, never a pinned worker: with the
    // staller sitting mid-request-line, the lone worker must still serve
    // live traffic immediately. Overload bites at the *work queue*: with
    // the worker busy on a slow clean and one complete request already
    // queued, the next complete request gets an immediate 503. The staller
    // itself is reclaimed by the idle sweep.
    let mut config = test_config();
    config.workers = 1;
    config.request_backlog = 1;
    config.idle_timeout = Duration::from_millis(600);
    // Burst 1 makes every prompt after the first wait ~500ms, so the
    // worker is demonstrably busy for the whole overload sequence.
    config.dispatcher.rate_limit = Some(RateLimit::new(2.0, 1.0));
    with_server(config, |handle| {
        let addr = handle.addr();
        let state = handle.state();
        // The staller: half a request line, then silence.
        let mut staller = TcpStream::connect(addr).expect("staller connects");
        staller.write_all(b"GET /v1/metr").expect("partial request");
        std::thread::sleep(Duration::from_millis(100));

        // The lone worker is free despite the staller: a live request is
        // served promptly, not after the idle reclaim.
        let start = Instant::now();
        let (status, _) = http(addr, "GET", "/v1/metrics", None);
        assert_eq!(status, 200);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "a stalled connection must not occupy the worker: {:?}",
            start.elapsed()
        );

        // Occupy the worker with a slow clean, and the queue with another.
        // Distinct tables so neither is a cache replay.
        let busy = std::thread::spawn(move || {
            http(addr, "POST", "/v1/clean", Some(&clean_body(&messy_csv())))
        });
        let spin_until = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "timed out waiting: {what}");
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        let requests_before = state.metrics.get(Counter::Requests);
        spin_until("worker picks up the slow clean", &|| {
            state.metrics.get(Counter::Requests) > requests_before
        });
        let queued_csv = messy_csv().replace("7.5", "6.5");
        let queued = std::thread::spawn(move || {
            http(addr, "POST", "/v1/clean", Some(&clean_body(&queued_csv)))
        });
        let queue_depth = || {
            let body = state.metrics_body();
            let json = cocoon_llm::json::parse(&body).expect("metrics body");
            json.get("accept").unwrap().get("queue_depth").unwrap().as_f64().unwrap()
        };
        spin_until("second clean queues", &|| queue_depth() >= 1.0);

        // The overflow client: worker busy + queue full → fast 503.
        let start = Instant::now();
        let (status, body) = http(addr, "GET", "/v1/metrics", None);
        assert_eq!(status, 503, "{body}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "the 503 must be immediate, not a queue-wedge timeout: {:?}",
            start.elapsed()
        );

        // Both cleans complete once the worker gets to them.
        assert_eq!(busy.join().expect("busy client").0, 200);
        assert_eq!(queued.join().expect("queued client").0, 200);

        // The staller is reclaimed by the idle sweep: its connection just
        // closes (EOF), with no worker ever having touched it.
        staller.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let mut sink = Vec::new();
        staller.read_to_end(&mut sink).expect("staller sees EOF, not a hang");

        // Metrics saw the whole story.
        let (_, metrics) = get_json(addr, "/v1/metrics");
        let accept = metrics.get("accept").expect("accept section");
        assert!(accept.get("accepted").and_then(Json::as_f64).unwrap() >= 4.0);
        assert!(accept.get("rejected_busy").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(accept.get("queue_capacity").and_then(Json::as_f64), Some(1.0));
        let connections = metrics.get("connections").expect("connections section");
        assert!(connections.get("idle_reaped").and_then(Json::as_f64).unwrap() >= 1.0);
    });
}

#[test]
fn cache_stays_bounded_under_a_concurrent_hammer() {
    // 8 clients hammer distinct tables through a tiny LRU: the shared
    // cache must never exceed its capacity, and the churn must show up in
    // the eviction counter.
    let mut config = test_config();
    config.cache_capacity = Some(8);
    with_server(config, |handle| {
        let addr = handle.addr();
        std::thread::scope(|scope| {
            for client in 0..8 {
                scope.spawn(move || {
                    for i in 0..3 {
                        // Distinct values per client and iteration ⇒
                        // distinct prompts ⇒ constant cache churn.
                        let csv_text = format!(
                            "id,code\n1,alpha{client}{i}\n2,alpha{client}{i}\n3,beta{client}{i}\n"
                        );
                        let (status, body) = http_with_headers(
                            addr,
                            "POST",
                            "/v1/clean",
                            &[("Content-Type", "text/csv")],
                            Some(&csv_text),
                        );
                        assert_eq!(status, 200, "{body}");
                    }
                });
            }
        });
        let (_, metrics) = get_json(addr, "/v1/metrics");
        let llm = metrics.get("llm").expect("llm section");
        let cached = llm.get("cached_responses").and_then(Json::as_f64).unwrap();
        assert!(cached <= 8.0, "cache grew past its capacity: {cached}");
        assert_eq!(llm.get("cache_capacity").and_then(Json::as_f64), Some(8.0));
        assert!(
            llm.get("cache_evictions").and_then(Json::as_f64).unwrap() > 0.0,
            "24 distinct cleans through 8 slots must evict: {llm}"
        );
    });
}

#[test]
fn job_ttl_and_delete_lifecycle_over_the_wire() {
    // The TTL must comfortably outlast a poll round-trip (so the client
    // reliably observes "done" before expiry) while keeping the test quick.
    let mut config = test_config();
    config.job_ttl = Some(Duration::from_millis(500));
    let body = clean_body(&messy_csv());
    with_server(config, |handle| {
        let addr = handle.addr();
        let poll_done = |poll_path: &str| {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let (status, view) = get_json(addr, poll_path);
                assert_eq!(status, 200);
                if view.get("status").and_then(Json::as_str) == Some("done") {
                    return;
                }
                assert!(Instant::now() < deadline, "job did not finish: {view}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        let submit = |body: &str| {
            let (status, submitted) = http(addr, "POST", "/v1/jobs", Some(body));
            assert_eq!(status, 202, "{submitted}");
            let json = cocoon_llm::json::parse(&submitted).expect("submit json");
            json.get("poll").and_then(Json::as_str).expect("poll path").to_string()
        };

        // TTL: a finished job expires and then polls as 404.
        let poll_path = submit(&body);
        poll_done(&poll_path);
        std::thread::sleep(Duration::from_millis(1100));
        let (status, _) = http(addr, "GET", &poll_path, None);
        assert_eq!(status, 404, "expired job polls as unknown");

        // DELETE: a finished job is freed immediately; repeats are 404.
        let poll_path = submit(&body);
        poll_done(&poll_path);
        let (status, _) = http(addr, "DELETE", &poll_path, None);
        assert_eq!(status, 204);
        assert_eq!(http(addr, "GET", &poll_path, None).0, 404);
        assert_eq!(http(addr, "DELETE", &poll_path, None).0, 404);

        let (_, metrics) = get_json(addr, "/v1/metrics");
        let jobs = metrics.get("jobs").expect("jobs section");
        assert!(jobs.get("expired").and_then(Json::as_f64).unwrap() >= 1.0, "{jobs}");
        assert!(jobs.get("deleted").and_then(Json::as_f64).unwrap() >= 1.0, "{jobs}");
    });
}

#[test]
fn stop_returns_even_with_an_idle_keep_alive_connection_open() {
    let server = Server::bind(test_config()).expect("bind");
    let handle = server.handle().expect("handle");
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve());
        // Complete one exchange, then leave the connection open and idle:
        // its worker is blocked reading, not accepting, when stop() runs.
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.write_all(b"GET /v1/metrics HTTP/1.1\r\nHost: cocoon\r\n\r\n").expect("send");
        let mut first = [0u8; 15];
        stream.read_exact(&mut first).expect("response starts");
        assert_eq!(&first, b"HTTP/1.1 200 OK");
        handle.stop();
        serving.join().expect("serve thread").expect("serve result");
        drop(stream);
    });
}

#[test]
fn job_results_negotiate_csv_like_the_sync_path() {
    // `Accept: text/csv` on a finished job's poll returns just the cleaned
    // table — byte-identical to what the synchronous endpoint negotiates
    // for the same input.
    let body = clean_body(&messy_csv());
    with_server(test_config(), |handle| {
        let addr = handle.addr();
        let (status, sync_csv) =
            http_with_headers(addr, "POST", "/v1/clean", &[("Accept", "text/csv")], Some(&body));
        assert_eq!(status, 200, "{sync_csv}");

        let (status, submitted) = http(addr, "POST", "/v1/jobs", Some(&body));
        assert_eq!(status, 202, "{submitted}");
        let poll_path = cocoon_llm::json::parse(&submitted)
            .expect("submit json")
            .get("poll")
            .and_then(Json::as_str)
            .expect("poll path")
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (status, view) = get_json(addr, &poll_path);
            assert_eq!(status, 200);
            if view.get("status").and_then(Json::as_str) == Some("done") {
                break;
            }
            assert!(Instant::now() < deadline, "job did not finish: {view}");
            std::thread::sleep(Duration::from_millis(10));
        }

        let (status, csv_out) =
            http_with_headers(addr, "GET", &poll_path, &[("Accept", "text/csv")], None);
        assert_eq!(status, 200, "{csv_out}");
        assert_eq!(csv_out, sync_csv, "job CSV == sync CSV for the same table");
        // Without the Accept header the poll still reports the JSON view.
        let (_, view) = get_json(addr, &poll_path);
        assert_eq!(view.get("status").and_then(Json::as_str), Some("done"));
    });
}

#[test]
fn pipelined_requests_are_served_in_order() {
    // Two requests in one write. The second arrives in the same read as
    // the first — after responding, the event loop must re-parse its own
    // buffered leftovers rather than wait for readiness that will never
    // fire (the kernel has no unread bytes to report).
    with_server(test_config(), |handle| {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .write_all(
                b"GET /v1/metrics HTTP/1.1\r\nHost: cocoon\r\n\r\n\
                  GET /v1/datasets HTTP/1.1\r\nHost: cocoon\r\n\r\n",
            )
            .expect("pipelined pair");
        let (status, first) = read_framed_response(&mut stream);
        assert_eq!(status, 200, "{first}");
        let first = cocoon_llm::json::parse(&first).expect("metrics json");
        assert!(first.get("requests").is_some());
        let (status, second) = read_framed_response(&mut stream);
        assert_eq!(status, 200, "{second}");
        let second = cocoon_llm::json::parse(&second).expect("datasets json");
        assert!(second.get("datasets").is_some());
    });
}

#[test]
fn mid_body_stall_parks_in_the_event_loop() {
    // A client that stalls halfway through a streaming CSV body is parked
    // parser state in the event loop — the lone worker serves live traffic
    // meanwhile — and on resume the parse picks up exactly where the bytes
    // stopped.
    let mut config = test_config();
    config.workers = 1;
    with_server(config, |handle| {
        let addr = handle.addr();
        let csv_text = messy_csv();
        let split_at = csv_text.len() / 2;
        let mut staller = TcpStream::connect(addr).expect("connect");
        staller
            .write_all(
                format!(
                    "POST /v1/clean HTTP/1.1\r\nHost: cocoon\r\nConnection: close\r\n\
                     Content-Type: text/csv\r\nAccept: text/csv\r\n\
                     Content-Length: {}\r\n\r\n",
                    csv_text.len()
                )
                .as_bytes(),
            )
            .expect("head");
        staller.write_all(&csv_text.as_bytes()[..split_at]).expect("half the body");
        std::thread::sleep(Duration::from_millis(100));

        // The worker is free while the body stalls.
        let start = Instant::now();
        let (status, _) = http(addr, "GET", "/v1/metrics", None);
        assert_eq!(status, 200);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "a mid-body stall must not occupy the worker: {:?}",
            start.elapsed()
        );

        // Resume: the clean completes as if the body had arrived in one piece.
        staller.write_all(&csv_text.as_bytes()[split_at..]).expect("rest of the body");
        let (status, body) = read_response(&mut staller);
        assert_eq!(status, 200, "{body}");
        assert!(body.starts_with("record_id,"), "cleaned CSV came back: {body:.40}");
    });
}

#[test]
fn large_response_completes_via_write_readiness() {
    // A response bigger than the socket buffers against a slow reader: the
    // event loop writes what fits, parks the rest in the connection's
    // outbound buffer, and finishes on write-readiness — no worker blocked
    // on the send, which `partial_writes` makes observable. Loopback
    // absorbs ~4MB against a stalled reader (send buffer auto-tuning), so
    // the response is sized ~3× that: wide cells with few distinct values
    // keep the clean cheap, and unique ids keep the deduplication stage
    // from collapsing the table.
    let wide: Vec<String> = ["alpha", "beta", "gamma"].iter().map(|word| word.repeat(60)).collect();
    let mut rows = String::from("id,code\n");
    for i in 0..20_000 {
        rows.push_str(&format!("{i},{}\n", wide[i % 3]));
    }
    let body = format!("{{\"csv\": {}, \"include_rows\": true}}", cocoon_llm::json::escape(&rows));
    let mut config = test_config();
    config.max_body = 64 * 1024 * 1024;
    with_server(config, |handle| {
        let addr = handle.addr();
        let state = handle.state();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                format!(
                    "POST /v1/clean HTTP/1.1\r\nHost: cocoon\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .expect("send request");
        // Do not read yet: the server must hit WouldBlock mid-response.
        let deadline = Instant::now() + Duration::from_secs(120);
        while state.metrics.get(Counter::PartialWrites) == 0 {
            assert!(Instant::now() < deadline, "no partial write observed");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Now drain: the buffered remainder arrives via write-readiness.
        let (status, response) = read_framed_response(&mut stream);
        assert_eq!(status, 200);
        let json = cocoon_llm::json::parse(&response).expect("response json");
        assert_eq!(
            json.get("cleaned_rows").and_then(Json::as_array).map(<[Json]>::len),
            Some(20_000),
            "the full body arrived intact"
        );
        assert!(state.metrics.get(Counter::PartialWrites) >= 1);
    });
}

/// `Threads:` from `/proc/self/status` — the whole-process thread count.
fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("proc status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads line")
        .trim()
        .parse()
        .expect("thread count")
}

/// How many keep-alive connections the herd opens.
const HERD_SIZE: usize = 10_050;

/// Not a test of its own — the client half of
/// [`ten_thousand_idle_connections_served_alongside_live_traffic`], run in
/// a *child process* so each side of the 10k connection pairs gets its own
/// file-descriptor budget (this container hard-caps RLIMIT_NOFILE at
/// 20000, and 10k pairs need ~20k fds). No-ops unless `HERD_ADDR` is set.
#[test]
fn herd_client_helper() {
    let Ok(addr) = std::env::var("HERD_ADDR") else { return };
    let addr: SocketAddr = addr.parse().expect("HERD_ADDR parses");
    let _ = poller::raise_nofile_limit((HERD_SIZE + 1000) as u64);
    let mut herd = Vec::with_capacity(HERD_SIZE);
    for i in 0..HERD_SIZE {
        let stream = (0..1000)
            .find_map(|_| match TcpStream::connect(addr) {
                Ok(stream) => Some(stream),
                // Transient backlog pressure; the event loop is draining
                // accepts as fast as readiness reports them.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(5));
                    None
                }
            })
            .unwrap_or_else(|| panic!("connection {i} would not open"));
        herd.push(stream);
        // Every 1000th connection talks, proving the server serves live
        // keep-alive traffic while the idle herd grows around it.
        if i % 1000 == 999 {
            let stream = herd.last_mut().unwrap();
            stream
                .write_all(b"GET /v1/metrics HTTP/1.1\r\nHost: cocoon\r\n\r\n")
                .expect("live request");
            let (status, body) = read_framed_response(stream);
            assert_eq!(status, 200, "live traffic at {} conns: {body}", i + 1);
        }
    }
    println!("HERD_READY");
    // Hold the herd open until the parent closes our stdin.
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
}

#[test]
fn ten_thousand_idle_connections_served_alongside_live_traffic() {
    use std::io::BufRead;

    // The headline number: 10k+ concurrent keep-alive connections on one
    // event thread, costing no threads at all — while live requests keep
    // being served among them. The client herd runs as a child process
    // (see [`herd_client_helper`]); the server and its metrics live here.
    let _ = poller::raise_nofile_limit((HERD_SIZE + 1000) as u64);
    let mut config = test_config();
    config.max_conns = 12_000;
    config.workers = 4;
    // Idle is legitimate here; don't let the sweep reap the herd.
    config.idle_timeout = Duration::from_secs(300);
    with_server(config, |handle| {
        let addr = handle.addr();
        let state = handle.state();
        // Baseline only after the server is demonstrably up (a served
        // request proves the event loop and a worker) and the spawn burst
        // has settled — measuring mid-startup would count the server's own
        // threads as if the herd had caused them.
        let (status, _) = get_json(addr, "/v1/metrics");
        assert_eq!(status, 200);
        let mut threads_before = process_threads();
        loop {
            std::thread::sleep(Duration::from_millis(50));
            let now = process_threads();
            if now == threads_before {
                break;
            }
            threads_before = now;
        }
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["herd_client_helper", "--exact", "--nocapture", "--test-threads", "1"])
            .env("HERD_ADDR", addr.to_string())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn herd client");
        // The child must not outlive a failing assertion below — an
        // orphaned herd would wedge the server stop this scope waits on.
        struct Reap(Option<std::process::Child>);
        impl Drop for Reap {
            fn drop(&mut self) {
                if let Some(mut child) = self.0.take() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
        }
        let mut guard = Reap(Some(child));
        let child = guard.0.as_mut().unwrap();

        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let ready = lines.by_ref().map_while(Result::ok).any(|line| line.contains("HERD_READY"));
        assert!(ready, "herd client died before opening {HERD_SIZE} connections");

        // The server has registered (essentially) the whole herd.
        let deadline = Instant::now() + Duration::from_secs(30);
        while state.metrics.get(Counter::ConnectionsOpen) < 10_000 {
            assert!(
                Instant::now() < deadline,
                "only {} connections registered",
                state.metrics.get(Counter::ConnectionsOpen)
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // 10k connections, zero new threads (slack for unrelated runtime
        // threads, not per-connection ones).
        let threads_after = process_threads();
        assert!(
            threads_after <= threads_before + 4,
            "connections must not cost threads: {threads_before} -> {threads_after}"
        );
        assert!(state.metrics.get(Counter::ConnectionsPeak) >= 10_000);

        // One more live exchange with the herd fully parked.
        let (status, metrics) = get_json(addr, "/v1/metrics");
        assert_eq!(status, 200);
        let connections = metrics.get("connections").expect("connections section");
        assert!(connections.get("open").and_then(Json::as_f64).unwrap() >= 10_000.0);

        // Release the herd: closing stdin lets the child exit, dropping
        // all 10k connections at once; the event loop reaps the EOFs.
        // Drain its remaining output first — a closed pipe would kill the
        // child mid-print and mask its real exit status.
        drop(child.stdin.take());
        for _ in lines.by_ref() {}
        let outcome = guard.0.take().unwrap().wait().expect("herd client exit");
        assert!(outcome.success(), "herd client reported failure");
    });
}

/// Raw HTTP exchange returning the full response text (head + body) so
/// tests can inspect response headers.
fn http_raw(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: cocoon\r\nConnection: close\r\n");
    match body {
        Some(body) => request.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len())),
        None => request.push_str("\r\n"),
    }
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

/// Structural checks over a Prometheus text exposition: only `# HELP` /
/// `# TYPE` comments, every histogram series' cumulative buckets monotone
/// over ascending `le` bounds, ending at `+Inf` equal to the series'
/// `_count`.
fn assert_prometheus_well_formed(text: &str) {
    use std::collections::HashMap;
    let mut buckets: HashMap<String, Vec<(f64, f64)>> = HashMap::new();
    let mut counts: HashMap<String, f64> = HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(line.starts_with("# HELP ") || line.starts_with("# TYPE "), "{line}");
            continue;
        }
        let (series, value) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("no sample value: {line}"));
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("non-numeric sample: {line}"));
        let Some((name, rest)) = series.split_once('{') else { continue };
        let labels = rest.strip_suffix('}').unwrap_or_else(|| panic!("unclosed labels: {line}"));
        if let Some(metric) = name.strip_suffix("_bucket") {
            let le = labels
                .split(',')
                .find_map(|kv| kv.strip_prefix("le=\""))
                .map(|v| v.trim_end_matches('"'))
                .unwrap_or_else(|| panic!("bucket without le: {line}"));
            let le = if le == "+Inf" { f64::INFINITY } else { le.parse().expect("le bound") };
            let others: Vec<&str> = labels.split(',').filter(|kv| !kv.starts_with("le=")).collect();
            buckets
                .entry(format!("{metric}{{{}}}", others.join(",")))
                .or_default()
                .push((le, value));
        } else if let Some(metric) = name.strip_suffix("_count") {
            counts.insert(format!("{metric}{{{labels}}}"), value);
        }
    }
    assert!(!buckets.is_empty(), "no histogram series in the exposition");
    for (key, series) in buckets {
        for pair in series.windows(2) {
            assert!(pair[0].0 < pair[1].0, "le bounds must ascend: {key}");
            assert!(pair[0].1 <= pair[1].1, "cumulative buckets must be monotone: {key} {pair:?}");
        }
        let &(last_le, last) = series.last().expect("non-empty series");
        assert!(last_le.is_infinite(), "{key} must end at +Inf");
        let count = counts.get(&key).unwrap_or_else(|| panic!("no _count for {key}"));
        assert_eq!(last, *count, "+Inf bucket equals _count: {key}");
    }
}

#[test]
fn request_ids_echo_and_prometheus_metrics_parse() {
    with_server(test_config(), |handle| {
        let addr = handle.addr();
        // Seed the latency histograms with one full clean.
        let (status, _) = http(addr, "POST", "/v1/clean", Some(&clean_body(&messy_csv())));
        assert_eq!(status, 200);

        // Every response echoes its trace id, and ids are monotonic.
        let id_of = |raw: &str| -> u64 {
            raw.lines()
                .find_map(|l| l.strip_prefix("X-Request-Id: "))
                .unwrap_or_else(|| panic!("no X-Request-Id in {raw:.300}"))
                .trim()
                .parse()
                .expect("id parses")
        };
        let first = id_of(&http_raw(addr, "GET", "/v1/metrics", None));
        let second = id_of(&http_raw(addr, "GET", "/v1/metrics", None));
        assert!(second > first, "request ids are monotonic: {first} then {second}");

        // `/v1/metrics` grew a latency section with endpoint and stage
        // percentiles, including the LLM batch round-trip histogram.
        let (_, metrics) = get_json(addr, "/v1/metrics");
        let latency = metrics.get("latency").expect("latency section");
        let clean = latency
            .get("endpoints")
            .and_then(|e| e.get("/v1/clean"))
            .unwrap_or_else(|| panic!("no /v1/clean latency: {latency}"));
        assert_eq!(clean.get("count").and_then(Json::as_f64), Some(1.0));
        let p50 = clean.get("p50_us").and_then(Json::as_f64).expect("p50_us");
        let p99 = clean.get("p99_us").and_then(Json::as_f64).expect("p99_us");
        assert!(p50 > 0.0 && p50 <= p99, "percentiles ordered: p50 {p50}, p99 {p99}");
        let stages = latency.get("stages").expect("stages section");
        assert!(stages.get("llm_batch").is_some(), "batch round-trips recorded: {stages}");

        // `GET /metrics` renders the same state as Prometheus text.
        let (status, text) = http(addr, "GET", "/metrics", None);
        assert_eq!(status, 200, "{text}");
        assert_prometheus_well_formed(&text);
        assert!(text.contains("cocoon_requests_total"), "{text:.400}");
        assert!(text.contains("cocoon_request_duration_seconds_bucket{endpoint=\"/v1/clean\""));
        assert!(text.contains("cocoon_stage_duration_seconds_bucket{stage=\"llm_batch\""));
    });
}

#[test]
fn slow_streamed_clean_span_tree_accounts_for_wall_time() {
    // The tracing acceptance bar: on a deliberately slow streamed-CSV clean
    // (tiny profiling chunks on Movies), the recorded span tree must
    // account for >= 95% of the server-measured wall time — contiguous
    // root segments from head parse to response write, with the pipeline
    // stages and LLM batch round-trips nested under the handler span.
    let movies_csv = csv::write_str(&cocoon_datasets::movies::generate().dirty);
    let config = ServerConfig { profile_chunk_rows: 3, ..test_config() };
    with_server(config, |handle| {
        let addr = handle.addr();
        let (status, _) = http_with_headers(
            addr,
            "POST",
            "/v1/clean",
            &[("Content-Type", "text/csv"), ("Accept", "text/csv")],
            Some(&movies_csv),
        );
        assert_eq!(status, 200);

        let traces = handle.state().obs.recent_traces();
        let trace = traces.iter().find(|t| t.route == "/v1/clean").expect("clean trace");
        assert_eq!((trace.status, trace.bytes > 0), (200, true));

        let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
        let root_ns: u64 = roots.iter().map(|s| s.duration_ns).sum();
        assert!(
            root_ns as f64 >= trace.total_ns as f64 * 0.95,
            "root segments account for wall time: {root_ns} of {} ns over {:?}",
            trace.total_ns,
            roots.iter().map(|s| (s.name, s.duration_ns)).collect::<Vec<_>>(),
        );
        let root_names: Vec<&str> = roots.iter().map(|s| s.name).collect();
        for expected in ["head_parse", "csv_stream", "queue_wait", "handler", "write"] {
            assert!(root_names.contains(&expected), "missing root {expected}: {root_names:?}");
        }

        let handler = trace.spans.iter().position(|s| s.name == "handler").expect("handler span");
        let children: Vec<&str> =
            trace.spans.iter().filter(|s| s.parent == Some(handler)).map(|s| s.name).collect();
        let stage_spans = children.iter().filter(|n| **n != "llm_batch").count();
        assert_eq!(
            stage_spans, 8,
            "all eight pipeline stages nest under the handler: {children:?}"
        );
        let batch = trace
            .spans
            .iter()
            .find(|s| s.name == "llm_batch")
            .unwrap_or_else(|| panic!("LLM batches nest under the handler: {children:?}"));
        assert_eq!(batch.parent, Some(handler));
        for attr in ["batch_size", "coalesced_total", "rate_limit_wait_us", "backend_us"] {
            assert!(batch.attrs.iter().any(|(k, _)| *k == attr), "batch attr {attr}");
        }
    });
}

#[test]
fn stage_latency_histograms_match_a_direct_observer_run() {
    use cocoon_core::{RunProgress, StageObserver, StageTiming};
    use std::sync::{Arc, Mutex};

    // A library user watching the same pipeline through the public
    // `StageObserver` hook must see exactly the stages the server's
    // latency registry aggregates.
    #[derive(Default)]
    struct Collect(Mutex<Vec<StageTiming>>);
    impl StageObserver for Collect {
        fn stage_finished(&self, timing: StageTiming) {
            self.0.lock().unwrap().push(timing);
        }
    }
    let csv_text = messy_csv();
    let table = csv::read_str(&csv_text).expect("fixture parses");
    let collector = Arc::new(Collect::default());
    let progress = RunProgress::new();
    progress.set_observer(collector.clone());
    Cleaner::new(SimLlm::new()).clean_with_progress(&table, &progress).expect("direct clean");
    let direct: Vec<StageTiming> = std::mem::take(&mut collector.0.lock().unwrap());
    assert!(!direct.is_empty(), "the direct run reported stages");

    with_server(test_config(), |handle| {
        let addr = handle.addr();
        let (status, _) = http(addr, "POST", "/v1/clean", Some(&clean_body(&csv_text)));
        assert_eq!(status, 200);

        // Identical stage label sets, one sample per stage for one clean.
        let histograms = handle.state().obs.stage_histograms();
        let mut server_stages: Vec<&str> = histograms.iter().map(|(name, _)| *name).collect();
        let mut direct_stages: Vec<&str> = direct.iter().map(|t| t.stage).collect();
        server_stages.sort_unstable();
        direct_stages.sort_unstable();
        assert_eq!(server_stages, direct_stages);
        for (name, histogram) in &histograms {
            assert_eq!(histogram.count(), 1, "{name}");
            assert!(histogram.max() > 0, "{name} recorded a duration");
        }

        // `/v1/metrics` reports the same labels, with the single-sample
        // percentile bracketing the recorded duration (bucket upper bound,
        // so >= the true value up to microsecond truncation).
        let (_, metrics) = get_json(addr, "/v1/metrics");
        let stages = metrics.get("latency").and_then(|l| l.get("stages")).expect("stages");
        for (name, histogram) in &histograms {
            let entry = stages.get(name).unwrap_or_else(|| panic!("{name} missing: {stages}"));
            assert_eq!(entry.get("count").and_then(Json::as_f64), Some(1.0), "{name}");
            let p50 = entry.get("p50_us").and_then(Json::as_f64).expect("p50_us");
            let p99 = entry.get("p99_us").and_then(Json::as_f64).expect("p99_us");
            assert!(p50 <= p99, "{name}: p50 {p50} > p99 {p99}");
            let recorded_us = histogram.max() as f64 / 1_000.0;
            assert!(p99 + 1.0 >= recorded_us, "{name}: p99 {p99}us vs recorded {recorded_us}us");
        }
    });
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    with_server(test_config(), |handle| {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        for i in 0..3 {
            stream.write_all(b"GET /v1/metrics HTTP/1.1\r\nHost: cocoon\r\n\r\n").expect("send");
            // Read the framed response off the persistent connection.
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") {
                stream.read_exact(&mut byte).expect("head byte");
                head.push(byte[0]);
            }
            let head = String::from_utf8(head).expect("utf-8 head");
            assert!(head.starts_with("HTTP/1.1 200 OK"), "request {i}: {head}");
            assert!(head.contains("Connection: keep-alive"), "request {i}");
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("content-length")
                .trim()
                .parse()
                .expect("length");
            let mut body = vec![0u8; length];
            stream.read_exact(&mut body).expect("body");
            cocoon_llm::json::parse(std::str::from_utf8(&body).unwrap()).expect("body json");
        }
    });
}

#[test]
fn keep_alive_idle_gap_is_not_billed_to_the_next_request() {
    // Server-side latency runs from a request's first byte to its
    // response's last: the idle gap between two requests on one keep-alive
    // connection belongs to neither.
    const GAP: Duration = Duration::from_millis(300);
    with_server(test_config(), |handle| {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        let request = b"GET /v1/datasets HTTP/1.1\r\nHost: cocoon\r\n\r\n";
        stream.write_all(request).expect("first request");
        assert_eq!(read_framed_response(&mut stream).0, 200);
        std::thread::sleep(GAP);
        stream.write_all(request).expect("second request");
        assert_eq!(read_framed_response(&mut stream).0, 200);

        // Traces seal just after the last byte goes out; wait for both.
        let deadline = Instant::now() + Duration::from_secs(10);
        let durations = loop {
            let durations: Vec<u64> = handle
                .state()
                .obs
                .recent_traces()
                .iter()
                .filter(|t| t.route == "/v1/datasets")
                .map(|t| t.total_ns)
                .collect();
            if durations.len() == 2 || Instant::now() > deadline {
                break durations;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(durations.len(), 2, "both requests traced");
        assert!(
            durations[1] < GAP.as_nanos() as u64,
            "second request recorded {} ms, the idle gap was {} ms",
            durations[1] / 1_000_000,
            GAP.as_millis(),
        );
        // The endpoint histogram holds the same durations.
        let (_, metrics) = get_json(handle.addr(), "/v1/metrics");
        let datasets = metrics
            .get("latency")
            .and_then(|l| l.get("endpoints"))
            .and_then(|e| e.get("/v1/datasets"))
            .expect("datasets latency");
        assert_eq!(datasets.get("count").and_then(Json::as_f64), Some(2.0));
        let max_us = datasets.get("max_us").and_then(Json::as_f64).expect("max_us");
        assert!(max_us < GAP.as_micros() as f64, "histogram max {max_us} us");
    });
}

/// The review fixture: one high-confidence typo ("cofffee") and one
/// low-confidence misplaced concept ("Hindi" in a country column), so a
/// 0.9 threshold auto-applies the first and withholds exactly the second.
fn review_csv() -> String {
    let mut text = String::from("drink,country\n");
    for _ in 0..50 {
        text.push_str("coffee,USA\n");
    }
    for _ in 0..10 {
        text.push_str("tea,India\n");
    }
    text.push_str("cofffee,Hindi\n");
    text
}

/// A clean request over [`review_csv`] with the string-outliers stage
/// isolated and the given confidence threshold, via the wire config.
fn review_body(threshold: f64) -> String {
    let config = cocoon_core::CleanerConfig {
        confidence_threshold: threshold,
        ..cocoon_core::CleanerConfig::only_issue("string_outliers")
    };
    format!(
        "{{\"csv\": {}, \"config\": {}}}",
        cocoon_llm::json::escape(&review_csv()),
        config.to_json()
    )
}

#[test]
fn withheld_repair_review_roundtrip_matches_unconditional_clean() {
    // The acceptance bar for the review loop: a repair withheld by the
    // confidence threshold is surfaced via GET /v1/reviews, applied by
    // POST …/accept, and the final table is byte-identical to what a
    // threshold-0.0 clean of the same request produces directly.
    with_server(test_config(), |handle| {
        let addr = handle.addr();

        // The unconditional run: every repair applied inline.
        let (status, body) = http(addr, "POST", "/v1/clean", Some(&review_body(0.0)));
        assert_eq!(status, 200, "{body}");
        let unconditional = cocoon_llm::json::parse(&body).expect("json");
        let final_csv =
            unconditional.get("cleaned_csv").and_then(Json::as_str).expect("csv").to_string();
        assert!(!final_csv.contains("Hindi"), "threshold 0.0 repairs everything");
        assert!(unconditional.get("pending").and_then(Json::as_array).unwrap().is_empty());

        // The gated run: the typo auto-applies, the misplaced value waits.
        let (status, body) = http(addr, "POST", "/v1/clean", Some(&review_body(0.9)));
        assert_eq!(status, 200, "{body}");
        let gated = cocoon_llm::json::parse(&body).expect("json");
        let gated_csv = gated.get("cleaned_csv").and_then(Json::as_str).expect("csv");
        assert!(gated_csv.contains("Hindi"), "the low-confidence repair is withheld");
        assert!(!gated_csv.contains("cofffee"), "the high-confidence repair auto-applied");
        let pending = gated.get("pending").and_then(Json::as_array).expect("pending");
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].get("issue").and_then(Json::as_str), Some("String Outliers"));
        assert!(pending[0].get("confidence").and_then(Json::as_f64).unwrap() < 0.9);
        // Applied ops report their confidence on the wire too.
        let ops = gated.get("ops").and_then(Json::as_array).expect("ops");
        assert!(ops.iter().all(|op| {
            let c = op.get("confidence").and_then(Json::as_f64).unwrap();
            (0.9..=1.0).contains(&c)
        }));

        // The withheld repair is listed for review.
        let (status, reviews) = get_json(addr, "/v1/reviews");
        assert_eq!(status, 200);
        assert_eq!(reviews.get("total").and_then(Json::as_f64), Some(1.0));
        let items = reviews.get("reviews").and_then(Json::as_array).expect("reviews");
        let item = &items[0];
        assert_eq!(item.get("status").and_then(Json::as_str), Some("pending"));
        assert_eq!(item.get("issue").and_then(Json::as_str), Some("String Outliers"));
        assert_eq!(item.get("job_id"), Some(&Json::Null), "sync cleans carry no job id");
        assert!(item.get("sql").and_then(Json::as_str).unwrap().contains("SELECT"));
        assert!(item
            .get("confidence_detail")
            .and_then(Json::as_str)
            .unwrap()
            .contains("self-report"));
        let id = item.get("id").and_then(Json::as_f64).expect("id") as u64;

        // Accepting applies the repair; the result equals the
        // unconditional clean, byte for byte.
        let accept_path = format!("/v1/reviews/{id}/accept");
        let (status, body) = http(addr, "POST", &accept_path, None);
        assert_eq!(status, 200, "{body}");
        let accepted = cocoon_llm::json::parse(&body).expect("json");
        assert_eq!(accepted.get("status").and_then(Json::as_str), Some("accepted"));
        assert_eq!(
            accepted.get("cleaned_csv").and_then(Json::as_str),
            Some(final_csv.as_str()),
            "review-approved table == unconditional clean"
        );
        assert!(accepted.get("cells_changed").and_then(Json::as_f64).unwrap() >= 1.0);

        // A second accept replays the identical outcome.
        let (status, replay) = http(addr, "POST", &accept_path, None);
        assert_eq!(status, 200);
        assert_eq!(replay, body, "double accept is idempotent");

        // The listing now shows the item accepted, and metrics saw it all.
        let (_, reviews) = get_json(addr, "/v1/reviews");
        let items = reviews.get("reviews").and_then(Json::as_array).unwrap();
        assert_eq!(items[0].get("status").and_then(Json::as_str), Some("accepted"));
        let (_, metrics) = get_json(addr, "/v1/metrics");
        let reviews = metrics.get("reviews").expect("reviews section");
        assert!(reviews.get("listed").and_then(Json::as_f64).unwrap() >= 2.0);
        assert_eq!(reviews.get("accept_requests").and_then(Json::as_f64), Some(2.0));
        assert_eq!(reviews.get("accepted").and_then(Json::as_f64), Some(1.0));
        assert_eq!(reviews.get("pending").and_then(Json::as_f64), Some(0.0));
    });
}

#[test]
fn review_conflicts_and_bad_requests_answer_cleanly() {
    with_server(test_config(), |handle| {
        let addr = handle.addr();
        let (status, _) = http(addr, "POST", "/v1/clean", Some(&review_body(0.9)));
        assert_eq!(status, 200);
        let (_, reviews) = get_json(addr, "/v1/reviews");
        let id = reviews.get("reviews").and_then(Json::as_array).unwrap()[0]
            .get("id")
            .and_then(Json::as_f64)
            .unwrap() as u64;

        // Reject, idempotently; then accepting the rejected item is 409.
        let reject_path = format!("/v1/reviews/{id}/reject");
        assert_eq!(http(addr, "POST", &reject_path, None).0, 200);
        assert_eq!(http(addr, "POST", &reject_path, None).0, 200, "repeat reject");
        let (status, body) = http(addr, "POST", &format!("/v1/reviews/{id}/accept"), None);
        assert_eq!(status, 409, "{body}");

        // Routing edges: unknown ids 404, malformed ids 400, unknown
        // actions 404, wrong methods 405.
        assert_eq!(http(addr, "POST", "/v1/reviews/99999/accept", None).0, 404);
        assert_eq!(http(addr, "POST", "/v1/reviews/abc/accept", None).0, 400);
        assert_eq!(http(addr, "POST", &format!("/v1/reviews/{id}/promote"), None).0, 404);
        assert_eq!(http(addr, "GET", &format!("/v1/reviews/{id}/accept"), None).0, 405);
        assert_eq!(http(addr, "POST", "/v1/reviews", None).0, 405);

        // None of that disturbed the store: the listing still serves.
        let (status, reviews) = get_json(addr, "/v1/reviews");
        assert_eq!(status, 200);
        assert_eq!(reviews.get("total").and_then(Json::as_f64), Some(1.0));
    });
}

#[test]
fn review_actions_racing_job_deletion_stay_consistent() {
    // Fault injection: reviews born from an async job race
    // `DELETE /v1/jobs/{id}`. Whatever the interleaving, accepts answer
    // 200 or 404 (never a 5xx, never a poisoned lock), the delete wins
    // eventually, and the store keeps serving.
    with_server(test_config(), |handle| {
        let addr = handle.addr();
        let submit = |body: &str| -> u64 {
            let (status, submitted) = http(addr, "POST", "/v1/jobs", Some(body));
            assert_eq!(status, 202, "{submitted}");
            cocoon_llm::json::parse(&submitted).unwrap().get("id").unwrap().as_f64().unwrap() as u64
        };
        let poll_done = |id: u64| {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let (status, view) = get_json(addr, &format!("/v1/jobs/{id}"));
                assert_eq!(status, 200);
                if view.get("status").and_then(Json::as_str) == Some("done") {
                    return;
                }
                assert!(Instant::now() < deadline, "job did not finish: {view}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };

        let job = submit(&review_body(0.9));
        poll_done(job);
        let (_, reviews) = get_json(addr, "/v1/reviews");
        let item = &reviews.get("reviews").and_then(Json::as_array).unwrap()[0];
        assert_eq!(
            item.get("job_id").and_then(Json::as_f64),
            Some(job as f64),
            "the review remembers its job"
        );
        let review = item.get("id").and_then(Json::as_f64).unwrap() as u64;

        // Race the accept against the job deletion.
        let accept_path = format!("/v1/reviews/{review}/accept");
        let delete_path = format!("/v1/jobs/{job}");
        let (accept, delete) = std::thread::scope(|scope| {
            let accept = scope.spawn(|| http(addr, "POST", &accept_path, None));
            let delete = scope.spawn(|| http(addr, "DELETE", &delete_path, None));
            (accept.join().expect("accept client"), delete.join().expect("delete client"))
        });
        assert_eq!(delete.0, 204, "{}", delete.1);
        assert!(
            accept.0 == 200 || accept.0 == 404,
            "accept saw the item or its clean absence, got {}: {}",
            accept.0,
            accept.1
        );

        // After the dust settles the review is gone for good, and both
        // verbs answer 404 — not 500, not a hang.
        assert_eq!(http(addr, "POST", &accept_path, None).0, 404);
        assert_eq!(http(addr, "POST", &format!("/v1/reviews/{review}/reject"), None).0, 404);
        let (status, reviews) = get_json(addr, "/v1/reviews");
        assert_eq!(status, 200, "the store still serves after the race");
        assert_eq!(reviews.get("total").and_then(Json::as_f64), Some(0.0));
        let (_, metrics) = get_json(addr, "/v1/metrics");
        assert!(
            metrics.get("reviews").unwrap().get("dropped").and_then(Json::as_f64).unwrap() >= 1.0
        );
    });
}

#[test]
fn expired_job_reviews_answer_not_found() {
    // Reviews expire with their job TTL: acting on one after expiry is a
    // clean 404, and the sweep leaves the store healthy.
    let mut config = test_config();
    config.job_ttl = Some(Duration::from_millis(300));
    with_server(config, |handle| {
        let addr = handle.addr();
        let (status, _) = http(addr, "POST", "/v1/clean", Some(&review_body(0.9)));
        assert_eq!(status, 200);
        let (_, reviews) = get_json(addr, "/v1/reviews");
        assert_eq!(reviews.get("total").and_then(Json::as_f64), Some(1.0));
        let id = reviews.get("reviews").and_then(Json::as_array).unwrap()[0]
            .get("id")
            .and_then(Json::as_f64)
            .unwrap() as u64;

        std::thread::sleep(Duration::from_millis(600));
        assert_eq!(http(addr, "POST", &format!("/v1/reviews/{id}/accept"), None).0, 404);
        assert_eq!(http(addr, "POST", &format!("/v1/reviews/{id}/reject"), None).0, 404);
        let (status, reviews) = get_json(addr, "/v1/reviews");
        assert_eq!(status, 200);
        assert_eq!(reviews.get("total").and_then(Json::as_f64), Some(0.0));
    });
}
