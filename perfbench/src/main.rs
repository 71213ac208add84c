//! Cocoon benchmark: end-to-end and per-layer figures for three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm-catalog --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the program untraced and prints the end-to-end
//! metrics; `--trace 1` runs an untraced and a traced pass of half the time
//! each and prints the per-layer metrics. Human-readable lines come first;
//! the last line of standard output is one JSON object. See `README.md`.

mod common;
mod library;
mod meter;
mod served;
mod stats;

use common::{Metric, Outcome};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["warm-catalog", "cold-catalog", "served-small"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// The end-to-end metrics, as `BENCHMARK.json` declares them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cleans_per_s", "1/s"),
    ("latency_ms_tail", "ms"),
    ("cell_f1", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, as `BENCHMARK.json` declares them.
fn per_layer_declared() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        [("table.csv_parse_ms", "ms"), ("table.csv_write_ms", "ms"), ("profile.ms", "ms")]
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
    for stage in meter::STAGE_KEYS {
        for (suffix, unit) in [
            ("ms", "ms"),
            ("detect_ms", "ms"),
            ("decide_ms", "ms"),
            ("model_ms", "ms"),
            ("llm_calls", "count"),
        ] {
            out.push((format!("core.{stage}.{suffix}"), unit));
        }
    }
    out.extend(
        [
            ("core.outside_stages_ms", "ms"),
            ("core.ops_per_clean", "count"),
            ("llm.model_ms", "ms"),
            ("llm.model_share", "ratio"),
            ("llm.prompts", "count"),
            ("llm.batch_calls", "count"),
            ("llm.prompt_kb", "KiB"),
            ("llm.response_kb", "KiB"),
            ("llm.cache_hit_ratio", "ratio"),
            ("llm_calls_per_clean", "count"),
            ("llm.dispatch.batches_per_req", "count"),
            ("llm.dispatch.prompts_per_batch", "count"),
            ("llm.dispatch.coalesced_per_req", "count"),
            ("llm.batch_ms_p50", "ms"),
            ("llm.dispatch.wait_ms_per_fresh_req", "ms"),
            ("sql.render_ms", "ms"),
            ("sql.replay_ms", "ms"),
            ("sql.ops", "count"),
            ("server.endpoint_ms_p50", "ms"),
            ("server.endpoint_ms_p99", "ms"),
            ("server.ttfb_ms_p50", "ms"),
            ("server.fresh_ms_p50", "ms"),
            ("server.repeat_ms_p50", "ms"),
            ("server.req_kb", "KiB"),
            ("server.resp_kb", "KiB"),
            ("loadgen.late_ms_p99", "ms"),
            ("trace.overhead_pct", "%"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    out
}

/// The declared metrics in declared order, valued from `produced`. A layer
/// the workload's path does not cross produces nothing and reads 0.
fn in_declared_order(declared: &[(String, &'static str)], produced: &[Metric]) -> Vec<Metric> {
    declared
        .iter()
        .map(|(name, unit)| match produced.iter().find(|m| &m.name == name) {
            Some(m) => Metric::new(name.clone(), m.value, unit, m.samples),
            None => Metric::new(name.clone(), 0.0, unit, 0),
        })
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_outcome(workload: &str, trace: bool, outcome: &Outcome) {
    for note in &outcome.notes {
        println!("# {note}");
    }
    let show = |title: &str, metrics: &[Metric]| {
        println!("# {title}");
        for m in metrics {
            let n =
                if m.samples == 0 { "not on this path".into() } else { format!("n={}", m.samples) };
            println!("#   {:<40} {:>14.4} {:<6} {n}", m.name, m.value, m.unit);
        }
    };
    let metrics = if trace {
        let metrics = in_declared_order(&per_layer_declared(), &outcome.per_layer);
        show(&format!("{workload}: per-layer (traced pass)"), &metrics);
        metrics
    } else {
        let declared: Vec<_> = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        let metrics = in_declared_order(&declared, &outcome.end_to_end);
        show(&format!("{workload}: end-to-end"), &metrics);
        show(&format!("{workload}: under workload-specific names"), &outcome.detail);
        metrics
    };
    println!("# attempted {} failed {}", outcome.attempted, outcome.failed);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "warm-catalog" => {
            library::run(library::CacheMode::Warm, args.seed, args.seconds, args.trace)
        }
        "cold-catalog" => {
            library::run(library::CacheMode::Cold, args.seed, args.seconds, args.trace)
        }
        _ => match served::run(args.seed, args.seconds, args.trace) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: served-small: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    print_outcome(&args.workload, args.trace, &outcome);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoon_llm::json::{self, Json};

    fn declared_in_manifest(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let manifest = json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        manifest
            .get(section)
            .and_then(Json::as_array)
            .expect("section present")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn the_printed_metrics_are_the_declared_ones() {
        let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        assert_eq!(owned(e2e), declared_in_manifest("end_to_end"));
        assert_eq!(owned(per_layer_declared()), declared_in_manifest("per_layer"));
    }

    #[test]
    fn workloads_are_the_declared_ones() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let manifest = json::parse(&text).expect("BENCHMARK.json parses");
        let names: Vec<&str> = manifest
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads present")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
