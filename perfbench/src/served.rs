//! The `served-small` workload: an in-process `cocoon_server::Server` on
//! loopback, default configuration apart from the address, driven open
//! loop at a short ladder of fixed rates over two keep-alive connections
//! with 100–300-row windows of the catalog tables: 80% repeats of a pool
//! the server's cache was warmed on, 20% windows it has never seen. Half
//! the requests go as `text/csv` both ways, half as the JSON envelope.

use crate::common::{
    catalog, cell_counts, ms, peak_rss_mb, pooled_f1, repeated_setup, same_run, window, Metric,
    Outcome, Rng,
};
use crate::library::{traced_clean, Traced};
use crate::meter::Meter;
use crate::stats::{highest_supported, sustained_rate, Latencies, Rung, Sample, Schedule};
use cocoon_core::{Cleaner, CleaningRun};
use cocoon_datasets::Dataset;
use cocoon_llm::json::{self, Json};
use cocoon_llm::{CachedLlm, SimLlm};
use cocoon_server::api::clean_response_body;
use cocoon_server::{Server, ServerConfig, ServerHandle};
use cocoon_table::{csv, Table};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use threadpool::ThreadPool;

/// Client connections, each driven by its own thread.
const CONNS: usize = 2;
/// Set-up threads warming the server's cache. Warm-up cleans mostly wait
/// out the dispatcher's batch window, so they overlap well.
const WARM_THREADS: usize = 4;
/// One request in this many carries a window the server has never seen
/// (20% fresh).
const FRESH_EVERY: usize = 5;
/// The ladder of offered rates (requests per second), ascending. Two
/// connections saturate near 40 requests/s, so the top rate keeps headroom
/// against a slower machine and the nominal rate stays clear of queueing.
const LADDER: [f64; 3] = [10.0, 15.0, 25.0];
/// Requests sent at each rate but the nominal one: enough for a p90 with
/// ten samples beyond it.
const RUNG_REQS: usize = 110;
/// The rate whose latencies are the headline figures.
const NOMINAL: usize = 1;
/// The percentile a rung is judged on: the highest the rung's sample
/// supports, p90, since a run of `--seconds` cannot give every rung the
/// thousand requests a p99 with ten samples beyond would take.
const JUDGED_P: f64 = 90.0;
/// Latency limit on that percentile (from due time) a rung must meet.
const LIMIT_MS: f64 = 750.0;
/// The traced pass re-cleans every this-many-th request's window in the
/// library for the engine and model layers.
const LAYER_SAMPLE: usize = 4;

/// A window of one catalog table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WindowId {
    table: usize,
    start: usize,
    len: usize,
}

/// One request of the plan, built before the clock starts.
struct Planned {
    window: WindowId,
    fresh: bool,
    csv_wire: bool,
    body: Arc<Vec<u8>>,
}

/// One request as the client saw it.
struct Done {
    sample: Sample,
    ttfb: Option<Duration>,
    status: u16,
    resp: Vec<u8>,
}

/// A running server with the state its set-up built.
struct Running {
    data: Vec<Dataset>,
    pool: Vec<WindowId>,
    server: Arc<Server>,
    handle: ServerHandle,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Running {
    /// Generates the tables, binds and starts the server, and warms its
    /// shared cache on the pool windows through the server's own model
    /// stack.
    fn start(seed: u64) -> io::Result<Running> {
        let data = catalog(seed);
        let mut rng = Rng::new(seed ^ 0x900D);
        let mut seen = HashSet::new();
        let tables = data.len();
        let pool: Vec<WindowId> = (0..tables * POOL_ROWS.len())
            .map(|k| pick_window(&data, k % tables, POOL_ROWS[k / tables], &mut rng, &mut seen))
            .collect();
        let config = ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() };
        let server = Arc::new(Server::bind(config)?);
        let handle = server.handle()?;
        let serving = Arc::clone(&server);
        let thread = Some(std::thread::spawn(move || serving.serve()));
        let running = Running { data, pool, server, handle, thread };
        let llm = &running.server.state().llm;
        std::thread::scope(|scope| {
            for part in running.pool.chunks(running.pool.len().div_ceil(WARM_THREADS)) {
                let running = &running;
                scope.spawn(move || {
                    for w in part {
                        let _ = Cleaner::new(llm).clean(&running.dirty_table(w));
                    }
                });
            }
        });
        Ok(running)
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The window as the server parses it off the wire.
    fn dirty_table(&self, w: &WindowId) -> Table {
        csv::read_str(&self.dirty_csv(w)).expect("a written CSV window reads back")
    }

    fn dirty_csv(&self, w: &WindowId) -> String {
        csv::write_str(&window(&self.data[w.table].dirty, w.start, w.len))
    }

    fn truth(&self, w: &WindowId) -> Table {
        window(&self.data[w.table].truth, w.start, w.len)
    }

    fn stop(&mut self) -> io::Result<()> {
        self.handle.stop();
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err(io::Error::other("server thread panicked")),
            None => Ok(()),
        }
    }

    fn llm_stats(&self) -> (usize, cocoon_llm::DispatcherStats) {
        let llm = &self.server.state().llm;
        (llm.misses(), llm.inner().stats())
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Row counts of fresh windows, cycled per table so every seed offers the
/// same mix of sizes and only the contents differ.
const FRESH_ROWS: [usize; 5] = [100, 150, 200, 250, 300];
/// Row counts of the pool windows: six per table, averaging what fresh
/// windows average.
const POOL_ROWS: [usize; 6] = [100, 140, 180, 220, 260, 300];

/// A window of `len` rows of `table` at a random start not used before.
fn pick_window(
    data: &[Dataset],
    table: usize,
    len: usize,
    rng: &mut Rng,
    seen: &mut HashSet<WindowId>,
) -> WindowId {
    let height = data[table].dirty.height();
    let len = len.min(height);
    loop {
        let w = WindowId { table, start: rng.range(0, height - len), len };
        if seen.insert(w) {
            return w;
        }
    }
}

fn request_bytes(body: &str, csv_wire: bool) -> Vec<u8> {
    let (content_type, accept, body) = if csv_wire {
        ("text/csv", "text/csv", body.to_string())
    } else {
        ("application/json", "application/json", format!("{{\"csv\": {}}}", json::escape(body)))
    };
    let mut out = format!(
        "POST /v1/clean HTTP/1.1\r\nHost: bench\r\nContent-Type: {content_type}\r\n\
         Accept: {accept}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Plans requests: every fifth request carries a fresh window (tables and
/// sizes cycled), the rest repeat pool windows in shuffled rounds; the wire
/// format alternates. A fixed stride keeps two fresh requests from arriving
/// back to back, so their queueing does not swing from seed to seed.
struct Planner {
    rng: Rng,
    seen: HashSet<WindowId>,
    next: usize,
    fresh_made: usize,
    repeat_order: Vec<usize>,
    bodies: HashMap<(WindowId, bool), Arc<Vec<u8>>>,
}

impl Planner {
    fn new(running: &Running, seed: u64) -> Planner {
        Planner {
            rng: Rng::new(seed ^ 0xF4E5),
            seen: running.pool.iter().copied().collect(),
            next: 0,
            fresh_made: 0,
            repeat_order: Vec::new(),
            bodies: HashMap::new(),
        }
    }

    fn plan(&mut self, running: &Running, count: usize) -> Vec<Planned> {
        (0..count).map(|_| self.one(running)).collect()
    }

    fn one(&mut self, running: &Running) -> Planned {
        let i = self.next;
        self.next += 1;
        let csv_wire = i.is_multiple_of(2);
        let fresh = i % FRESH_EVERY == FRESH_EVERY - 1;
        let tables = running.data.len();
        if fresh {
            let k = self.fresh_made;
            self.fresh_made += 1;
            let len = FRESH_ROWS[(k / tables) % FRESH_ROWS.len()];
            let window = pick_window(&running.data, k % tables, len, &mut self.rng, &mut self.seen);
            let body = Arc::new(request_bytes(&running.dirty_csv(&window), csv_wire));
            return Planned { window, fresh, csv_wire, body };
        }
        if self.repeat_order.is_empty() {
            // A new shuffled round of the pool (Fisher-Yates).
            self.repeat_order = (0..running.pool.len()).collect();
            for j in (1..self.repeat_order.len()).rev() {
                let k = self.rng.range(0, j);
                self.repeat_order.swap(j, k);
            }
        }
        let window = running.pool[self.repeat_order.pop().expect("a non-empty round")];
        let body = Arc::clone(
            self.bodies
                .entry((window, csv_wire))
                .or_insert_with(|| Arc::new(request_bytes(&running.dirty_csv(&window), csv_wire))),
        );
        Planned { window, fresh, csv_wire, body }
    }
}

/// A keep-alive connection with a buffered reader on its read half.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(64 * 1024, writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends one request and reads its response: status, body and the time
    /// the first response byte arrived.
    fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>, Instant)> {
        self.writer.write_all(request)?;
        if self.reader.fill_buf()?.is_empty() {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let first_byte = Instant::now();
        let mut status = 0;
        let mut length = 0;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some(rest) = trimmed.strip_prefix("HTTP/1.1 ") {
                status = rest.get(..3).and_then(|s| s.parse().ok()).unwrap_or(0);
            } else if let Some((name, value)) = trimmed.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| io::ErrorKind::InvalidData)?;
                }
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body, first_byte))
    }
}

/// Drives `plan` open loop at `rate`: each connection's thread takes the
/// next request, waits for its due time if it is early, and sends it.
fn drive(addr: SocketAddr, rate: f64, plan: &[Planned]) -> io::Result<Vec<Done>> {
    let mut conns = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        conns.push(Conn::open(addr)?);
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Done>>> = Mutex::new((0..plan.len()).map(|_| None).collect());
    let schedule = Schedule { start: Instant::now() + Duration::from_millis(5), rate_per_s: rate };
    std::thread::scope(|scope| {
        for mut conn in conns {
            let (next, results) = (&next, &results);
            scope.spawn(move || {
                let mut broken = false;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = plan.get(i) else { break };
                    let due = schedule.due(i);
                    let picked = Instant::now();
                    if picked < due {
                        std::thread::sleep(due - picked);
                    }
                    let sent = Instant::now();
                    let outcome = if broken { None } else { conn.exchange(&req.body).ok() };
                    let done = Instant::now();
                    broken |= outcome.is_none();
                    let (status, resp, ttfb) = match outcome {
                        Some((status, body, first)) => (status, body, Some(first - sent)),
                        None => (0, Vec::new(), None),
                    };
                    let ok = status == 200;
                    let sample =
                        Sample { due, sent, done: ok.then_some(done), on_time_pick: picked <= due };
                    let record = Done { sample, ttfb, status, resp };
                    results.lock().expect("results lock")[i] = Some(record);
                }
            });
        }
    });
    Ok(results.into_inner().expect("results lock").into_iter().map(|d| d.expect("sent")).collect())
}

/// Direct library cleans of the windows whose responses are checked, kept
/// for the byte comparison and pooled for `cell_f1`.
struct Checker<'a> {
    running: &'a Running,
    /// The dirty window and its direct clean (`None` if that errored).
    expected: HashMap<WindowId, (Table, Option<CleaningRun>)>,
}

impl Checker<'_> {
    /// Whether `body` is byte-identical to what the server renders for a
    /// direct clean of the request's window.
    fn matches(&mut self, req: &Planned, body: &[u8]) -> bool {
        let running = self.running;
        let (_, run) = self.expected.entry(req.window).or_insert_with(|| {
            let dirty = running.dirty_table(&req.window);
            let run = Cleaner::new(SimLlm::new()).clean(&dirty).ok();
            (dirty, run)
        });
        run.as_ref().is_some_and(|run| {
            let want = if req.csv_wire {
                csv::write_str(&run.table)
            } else {
                clean_response_body(run, false)
            };
            want.as_bytes() == body
        })
    }

    fn f1(&self) -> (f64, usize) {
        let counts: Vec<_> = self
            .expected
            .iter()
            .filter_map(|(w, (dirty, run))| {
                run.as_ref().map(|run| cell_counts(dirty, &run.table, &self.running.truth(w)))
            })
            .collect();
        (pooled_f1(&counts), counts.len())
    }
}

/// Checks every request of a rung: a 200, and for sampled ones a body
/// byte-identical to the direct clean.
fn check_rung(
    plan: &[Planned],
    done: &[Done],
    checker: &mut Checker,
    checked: &mut HashSet<WindowId>,
    out: &mut Outcome,
) {
    for (req, d) in plan.iter().zip(done) {
        // Every fresh window, and each pool window's first appearance.
        let sampled = req.fresh || checked.insert(req.window);
        let ok = d.status == 200 && (!sampled || checker.matches(req, &d.resp));
        out.check(ok, || {
            format!("request for {:?} (fresh {}): status {}", req.window, req.fresh, d.status)
        });
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    // Each repetition starts its own server; replacing an earlier one drops
    // it, which stops its server and joins the serving thread.
    let (running, setup_s, setup_reps) = repeated_setup(seed, Running::start);
    let mut running = running?;
    let mut planner = Planner::new(&running, seed);
    let mut checker = Checker { running: &running, expected: HashMap::new() };
    let mut checked = HashSet::new();

    // Untraced, the whole ladder: every rung but the nominal one sends just
    // enough requests to judge it, the nominal rung fills the rest of the
    // time. Traced, the nominal rate alone for half the time; the other half
    // goes to library re-cleans of its windows.
    let ladder: &[f64] = if trace { &LADDER[NOMINAL..=NOMINAL] } else { &LADDER };
    let rung_len = |rate: f64| {
        if rate != LADDER[NOMINAL] {
            return RUNG_REQS;
        }
        let others: f64 = ladder.iter().filter(|&&r| r != rate).map(|r| RUNG_REQS as f64 / r).sum();
        let budget = if trace { seconds / 2.0 } else { seconds };
        (((budget - others) * rate).ceil() as usize).max(RUNG_REQS)
    };
    let mut rungs = Vec::new();
    let mut nominal = None;
    let (misses0, stats0) = running.llm_stats();
    for &rate in ladder {
        let plan = planner.plan(&running, rung_len(rate));
        let done = drive(running.addr(), rate, &plan)?;
        check_rung(&plan, &done, &mut checker, &mut checked, &mut out);
        let samples: Vec<Sample> = done.iter().map(|d| d.sample).collect();
        rungs.push(Rung::judge(rate, JUDGED_P, &samples));
        if rate == LADDER[NOMINAL] {
            nominal = Some((plan, done));
        }
    }
    let (misses1, stats1) = running.llm_stats();
    let (nominal_plan, nominal_done) = nominal.expect("the ladder holds the nominal rate");
    let total_requests = out.attempted;

    let mut lat = Latencies::default();
    for d in &nominal_done {
        lat.push_ms(d.sample.latency().map_or(f64::INFINITY, ms));
    }
    let n = lat.len();
    let tail_p = highest_supported(n, &[50.0, 90.0, 99.0]).unwrap_or(50.0);
    let p50 = lat.percentile(50.0);
    let tail = lat.percentile(tail_p);
    let sustained = sustained_rate(&rungs, LIMIT_MS);
    let (f1, f1_tables) = checker.f1();
    let calls_per_req = (misses1 - misses0) as f64 / total_requests.max(1) as f64;
    for r in &rungs {
        out.notes.push(format!(
            "rung {} rps: p{JUDGED_P} {} ms (limit {LIMIT_MS}), backlog growth {:.2} ms",
            r.rate_per_s,
            r.tail_ms.map_or("unsupported".to_string(), |v| format!("{v:.2}")),
            r.backlog_growth_ms
        ));
    }

    out.end_to_end = vec![
        Metric::new("setup_s", setup_s, "s", setup_reps),
        Metric::new("cleans_per_s", sustained, "1/s", rungs.len()),
        Metric::new("latency_ms_tail", tail, "ms", n),
        Metric::new("cell_f1", f1, "ratio", f1_tables),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ];
    out.detail = vec![
        Metric::new("req_ms_p50", p50, "ms", n),
        Metric::new(format!("req_ms_p{tail_p}"), tail, "ms", n),
        Metric::new("sustained_rps", sustained, "1/s", rungs.len()),
        Metric::new("llm_calls_per_clean", calls_per_req, "count", total_requests),
        Metric::new("cell_f1", f1, "ratio", f1_tables),
    ];

    if trace {
        out.per_layer = per_layer(
            &running,
            &nominal_plan,
            &nominal_done,
            (misses1 - misses0, stats0, stats1),
            &mut out,
        );
    }
    drop(checker);
    running.stop()?;
    Ok(out)
}

/// Reads `latency.<section>.<key>` of the server's `/v1/metrics` as ms.
fn metrics_ms(metrics: &Json, section: &str, key_contains: &str, field: &str) -> f64 {
    metrics
        .get("latency")
        .and_then(|l| l.get(section))
        .and_then(Json::as_object)
        .and_then(|o| o.iter().find(|(k, _)| k.contains(key_contains)).map(|(_, v)| v))
        .and_then(|v| v.get(field))
        .and_then(Json::as_f64)
        .map_or(0.0, |us| us / 1e3)
}

fn get_metrics(addr: SocketAddr) -> io::Result<Json> {
    let mut conn = Conn::open(addr)?;
    let (status, body, _) =
        conn.exchange(b"GET /v1/metrics HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n")?;
    if status != 200 {
        return Err(io::Error::other(format!("/v1/metrics answered {status}")));
    }
    let text = String::from_utf8(body).map_err(|_| io::ErrorKind::InvalidData)?;
    json::parse(&text).map_err(|e| io::Error::other(e.to_string()))
}

/// The traced figures of `served-small`: client-side timings and sizes of
/// the nominal rung, the server's own histograms and dispatcher counters,
/// and traced library cleans of the same windows for the engine and model
/// layers.
fn per_layer(
    running: &Running,
    plan: &[Planned],
    done: &[Done],
    (misses, stats0, stats1): (usize, cocoon_llm::DispatcherStats, cocoon_llm::DispatcherStats),
    out: &mut Outcome,
) -> Vec<Metric> {
    let reqs = plan.len().max(1) as f64;
    let metrics = get_metrics(running.addr());
    if let Err(e) = &metrics {
        out.notes.push(format!("FAILED: /v1/metrics: {e}"));
    }
    out.check(metrics.is_ok(), || "GET /v1/metrics".into());
    let metrics = metrics.unwrap_or(Json::Null);

    let mut ttfb = Latencies::default();
    let mut fresh = Latencies::default();
    let mut repeat = Latencies::default();
    let mut late = Latencies::default();
    let (mut req_bytes, mut resp_bytes) = (0usize, 0usize);
    for (req, d) in plan.iter().zip(done) {
        if let Some(t) = d.ttfb {
            ttfb.push(t);
        }
        if let Some(l) = d.sample.latency() {
            if req.fresh {
                fresh.push(l);
            } else {
                repeat.push(l);
            }
        }
        if let Some(l) = d.sample.generator_late() {
            late.push(l);
        }
        req_bytes += req.body.len();
        resp_bytes += d.resp.len();
    }

    // Engine and model layers: traced library cleans of the rung's windows
    // in request order, repeats through a cache warmed on the pool (as the
    // server's is) and fresh windows through a new empty cache, the
    // library cold clean the dispatcher wait is measured against.
    let pool = ThreadPool::from_env();
    let warm_bare = CachedLlm::new(SimLlm::new());
    let warm_traced = CachedLlm::new(Meter::new(SimLlm::new()));
    for w in &running.pool {
        let table = running.dirty_table(w);
        let _ = Cleaner::new(&warm_bare).clean(&table);
        let _ = Cleaner::new(&warm_traced).clean(&table);
    }
    let mut traced = Traced::default();
    let mut bare_ms = Latencies::default();
    let mut wait = Latencies::default();
    let mut fresh_wire = Latencies::default();
    for (i, (req, d)) in plan.iter().zip(done).enumerate() {
        let sampled = i.is_multiple_of(LAYER_SAMPLE);
        if !sampled && !req.fresh {
            continue;
        }
        let table = running.dirty_table(&req.window);
        let cold_bare = CachedLlm::new(SimLlm::new());
        let model = if req.fresh { &cold_bare } else { &warm_bare };
        let t = Instant::now();
        let bare = Cleaner::new(model).clean(&table);
        let elapsed = t.elapsed();
        if let (true, Some(service)) = (req.fresh, d.sample.service()) {
            wait.push_ms(ms(service) - ms(elapsed));
            fresh_wire.push(service);
        }
        if !sampled {
            continue;
        }
        bare_ms.push(elapsed);
        let cold_traced = CachedLlm::new(Meter::new(SimLlm::new()));
        let cache = if req.fresh { &cold_traced } else { &warm_traced };
        let ok = match (traced_clean(&table, cache, &pool, &mut traced), &bare) {
            (Some((run, replay_ok)), Ok(bare)) => replay_ok && same_run(bare, &run),
            _ => false,
        };
        out.check(ok, || format!("traced library clean of {:?} differs", req.window));
    }
    out.notes.push(format!(
        "dispatcher wait share of fresh requests: {:.1}% ({:.2} ms of {:.2} ms on the wire, n={})",
        100.0 * wait.mean_ms() / fresh_wire.mean_ms().max(1e-9),
        wait.mean_ms(),
        fresh_wire.mean_ms(),
        wait.len()
    ));
    let mut m = traced.metrics(bare_ms.mean_ms());
    let batches = (stats1.batches - stats0.batches) as f64;
    let prompts = (stats1.batched_prompts - stats0.batched_prompts) as f64;
    let c = plan.len();
    m.extend([
        Metric::new("llm.dispatch.batches_per_req", batches / reqs, "count", c),
        Metric::new("llm.dispatch.prompts_per_batch", prompts / batches.max(1.0), "count", c),
        Metric::new(
            "llm.dispatch.coalesced_per_req",
            (stats1.coalesced - stats0.coalesced) as f64 / reqs,
            "count",
            c,
        ),
        Metric::new(
            "llm.batch_ms_p50",
            metrics_ms(&metrics, "stages", "llm_batch", "p50_us"),
            "ms",
            c,
        ),
        Metric::new("llm.dispatch.wait_ms_per_fresh_req", wait.mean_ms(), "ms", wait.len()),
        Metric::new(
            "server.endpoint_ms_p50",
            metrics_ms(&metrics, "endpoints", "clean", "p50_us"),
            "ms",
            c,
        ),
        Metric::new(
            "server.endpoint_ms_p99",
            metrics_ms(&metrics, "endpoints", "clean", "p99_us"),
            "ms",
            c,
        ),
        Metric::new("server.ttfb_ms_p50", ttfb.percentile(50.0), "ms", ttfb.len()),
        Metric::new("server.fresh_ms_p50", fresh.percentile(50.0), "ms", fresh.len()),
        Metric::new("server.repeat_ms_p50", repeat.percentile(50.0), "ms", repeat.len()),
        Metric::new("server.req_kb", req_bytes as f64 / 1024.0 / reqs, "KiB", c),
        Metric::new("server.resp_kb", resp_bytes as f64 / 1024.0 / reqs, "KiB", c),
        Metric::new("loadgen.late_ms_p99", late.percentile(99.0), "ms", late.len()),
        Metric::new("llm_calls_per_clean", misses as f64 / reqs, "count", c),
    ]);
    m
}
