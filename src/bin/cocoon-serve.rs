//! `cocoon-serve` — run the Cocoon cleaning service.
//!
//! ```sh
//! cargo run --release --bin cocoon-serve -- --addr 127.0.0.1:7878
//! curl -s -X POST http://127.0.0.1:7878/v1/clean \
//!      -d '{"csv": "id,lang\n1,eng\n2,eng\n3,eng\n4,English\n"}'
//! ```
//!
//! See `docs/API.md` for the full endpoint/flag reference and the README
//! "Serving" section for an overview.

use cocoon_llm::{DispatcherConfig, RateLimit};
use cocoon_server::{Server, ServerConfig};
use std::time::Duration;

const USAGE: &str = "cocoon-serve — Cocoon HTTP cleaning service

USAGE: cocoon-serve [FLAGS]

FLAGS:
  --addr HOST:PORT        bind address        (default 127.0.0.1:7878; port 0 = ephemeral)
  --workers N             request workers     (default max(8, cores); bounds concurrent cleans)
  --job-workers N         async job workers   (default 2)
  --event-threads N       readiness loops owning the sockets (default 1;
                          one loop multiplexes thousands of connections)
  --max-conns N           open-connection cap across all event threads;
                          beyond it new connections get an immediate 503
                          (default 10000)
  --request-backlog N     complete requests allowed to wait for a free
                          worker; beyond this requests get an immediate
                          503 (default 64)
  --idle-timeout-secs S   silent-connection reclaim time — the slow-loris
                          bound; any byte resets the clock (default 30)
  --max-body BYTES        request body cap    (default 8388608; over => 413)
  --profile-chunk-rows N  rows per profiling chunk on streamed text/csv
                          ingest — bounds the event loop's profiling
                          working set; any N yields the same profile
                          (default 4096)
  --cache-capacity N      LRU bound on the shared completion cache
                          (default 16384; 0 = unbounded)
  --job-ttl-secs S        finished jobs expire S seconds after finishing
                          (default 900; 0 = never)
  --batch-window-ms MS    LLM batch window    (default 2)
  --max-batch N           LLM batch size cap  (default 64)
  --rate-limit RPS[:BURST]
                          token-bucket limit on prompts reaching the model
                          (default off; BURST defaults to RPS)
  --log-format json|off   structured access log on stderr: one JSON line
                          per request with id, route, status, bytes and
                          per-segment micros (default off)
  --slow-request-ms MS    requests slower than MS dump their full span
                          tree to stderr (default off; 0 = dump all)
  --help                  print this text
";

fn fail(message: &str) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_flags() -> ServerConfig {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value =
            |name: &str| args.next().unwrap_or_else(|| fail(&format!("{name} needs a value")));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => config.workers = parse_num(&value("--workers"), "--workers"),
            "--job-workers" => {
                config.job_workers = parse_num(&value("--job-workers"), "--job-workers")
            }
            "--event-threads" => {
                config.event_threads =
                    match parse_num::<usize>(&value("--event-threads"), "--event-threads") {
                        0 => fail("--event-threads must be positive"),
                        n => n,
                    }
            }
            "--max-conns" => {
                config.max_conns = match parse_num::<usize>(&value("--max-conns"), "--max-conns") {
                    0 => fail("--max-conns must be positive"),
                    n => n,
                }
            }
            "--request-backlog" => {
                config.request_backlog = parse_num(&value("--request-backlog"), "--request-backlog")
            }
            "--idle-timeout-secs" => {
                // Unlike the sibling 0-means-off flags, a zero idle bound
                // would disconnect every briefly-quiet client; refuse it.
                config.idle_timeout =
                    match parse_num::<u64>(&value("--idle-timeout-secs"), "--idle-timeout-secs") {
                        0 => fail("--idle-timeout-secs must be positive"),
                        s => Duration::from_secs(s),
                    }
            }
            "--max-body" => config.max_body = parse_num(&value("--max-body"), "--max-body"),
            "--profile-chunk-rows" => {
                config.profile_chunk_rows =
                    match parse_num::<usize>(&value("--profile-chunk-rows"), "--profile-chunk-rows")
                    {
                        0 => fail("--profile-chunk-rows must be positive"),
                        n => n,
                    }
            }
            "--cache-capacity" => {
                // 0 means unbounded, matching the library's `CachedLlm::new`.
                config.cache_capacity =
                    match parse_num::<usize>(&value("--cache-capacity"), "--cache-capacity") {
                        0 => None,
                        n => Some(n),
                    }
            }
            "--job-ttl-secs" => {
                // 0 means never expire (retention cap still applies).
                config.job_ttl = match parse_num::<u64>(&value("--job-ttl-secs"), "--job-ttl-secs")
                {
                    0 => None,
                    s => Some(Duration::from_secs(s)),
                }
            }
            "--batch-window-ms" => {
                config.dispatcher.batch_window = Duration::from_millis(parse_num::<u64>(
                    &value("--batch-window-ms"),
                    "--batch-window-ms",
                ))
            }
            "--max-batch" => {
                config.dispatcher.max_batch = parse_num(&value("--max-batch"), "--max-batch")
            }
            "--rate-limit" => {
                config.dispatcher.rate_limit = Some(parse_rate_limit(&value("--rate-limit")))
            }
            "--log-format" => {
                config.log_format = value("--log-format")
                    .parse()
                    .unwrap_or_else(|e: String| fail(&format!("--log-format: {e}")))
            }
            "--slow-request-ms" => {
                config.slow_request_ms =
                    Some(parse_num(&value("--slow-request-ms"), "--slow-request-ms"))
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    config
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
    raw.parse().unwrap_or_else(|_| fail(&format!("{flag}: cannot parse {raw:?}")))
}

/// `RPS` or `RPS:BURST`, both positive numbers.
fn parse_rate_limit(raw: &str) -> RateLimit {
    let (rps, burst) = match raw.split_once(':') {
        Some((rps, burst)) => (rps, Some(burst)),
        None => (raw, None),
    };
    let per_sec: f64 = parse_num(rps, "--rate-limit");
    let burst: f64 = burst.map(|b| parse_num(b, "--rate-limit")).unwrap_or(per_sec);
    if per_sec <= 0.0 || burst <= 0.0 {
        fail("--rate-limit values must be positive");
    }
    RateLimit::new(per_sec, burst)
}

fn main() {
    let config = parse_flags();
    let dispatcher: DispatcherConfig = config.dispatcher;
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => fail(&format!("cannot bind: {e}")),
    };
    let addr = server.local_addr().expect("bound listener has an address");
    println!("cocoon-serve listening on http://{addr}");
    println!(
        "  dispatcher: batch window {:?}, max batch {}, rate limit {}",
        dispatcher.batch_window,
        dispatcher.max_batch,
        match dispatcher.rate_limit {
            Some(limit) => format!("{}/s (burst {})", limit.per_sec, limit.burst),
            None => "off".to_string(),
        }
    );
    println!("  endpoints: POST /v1/clean · POST /v1/jobs · GET|DELETE /v1/jobs/{{id}} · GET /v1/datasets · GET /v1/metrics · GET /metrics (prometheus)");
    if let Err(e) = server.serve() {
        eprintln!("server stopped: {e}");
        std::process::exit(1);
    }
}
