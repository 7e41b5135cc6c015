//! `perfbench` — the SMOQE-RS benchmark: three workloads, seven end-to-end
//! metrics from untraced runs, and per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <serve_mix|walk_large|ingest_edit> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! perfbench --steady <k> [--same-seed] [--workload <w>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod harness;
mod host;
mod ingest_edit;
mod measure;
mod oracle;
mod rng;
#[cfg(test)]
mod selfcheck;
mod serve_mix;
mod trace;
mod walk_large;
mod wire;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use harness::{Budget, Config, Header, Outcome, Scale, SETUPS_PER_ROUND, SETUP_ROUNDS};
use measure::{median, percentile, quartiles, ratio};
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["serve_mix", "walk_large", "ingest_edit"];

/// The end-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
];

/// Layers of the self-time table (span-name prefixes).
const LAYERS: [&str; 8] = [
    "bench",
    "smoqed",
    "smoqe",
    "smoqe_hype",
    "smoqe_xml",
    "smoqe_xpath",
    "smoqe_rewrite",
    "smoqe_automata",
];

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
    same_seed: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        steady: None,
        same_seed: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--same-seed" => args.same_seed = true,
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; expected one of {WORKLOADS:?}"
            ));
        }
    }
    if args.steady.is_none() && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The revision of the checkout, or "unknown" outside a git checkout.
fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

pub fn run_workload(name: &str, cfg: &Config, announce: &mut dyn FnMut(&Header)) -> Outcome {
    match name {
        "serve_mix" => serve_mix::run(cfg, announce),
        "walk_large" => walk_large::run(cfg, announce),
        "ingest_edit" => ingest_edit::run(cfg, announce),
        _ => unreachable!("workload names are checked when parsing arguments"),
    }
}

/// Prints the run header and refuses to run more busy threads than cores.
fn announce(header: &Header) {
    let n = header.nproc;
    println!(
        "# threads: client={} server_workers={} parallel_budget={} busy_at_once={} nproc={n}",
        header.client_threads,
        header.server_workers,
        header.parallel_budget,
        header.busy_threads()
    );
    println!("# threads started: {}", header.threads_started);
    if let Some(cpu) = header.pinned_cpu {
        println!("# client and server threads pinned to CPU {cpu}");
    }
    for (doc, (nodes, bytes)) in &header.docs {
        println!("# document {doc}: {nodes} nodes, {bytes} bytes of XML");
    }
    assert!(
        header.busy_threads() <= n,
        "client threads + server workers + parallel threads ({}) exceed nproc ({n})",
        header.busy_threads()
    );
}

/// The end-to-end metrics. Throughput, CPU time per operation and the
/// latency percentiles are taken over every timed operation, each window's
/// times scaled to nominal host speed (see [`host`]).
pub fn end_to_end(out: &Outcome) -> BTreeMap<&'static str, f64> {
    let t = &out.timed;
    let windows = harness::windows(&t.cycles, out.header.cycles_per_window);
    let ops: u64 = windows.iter().map(|w| w.ops()).sum();
    let seconds: f64 = windows.iter().map(|w| w.seconds()).sum();
    let cpu_ms: f64 = windows.iter().map(|w| w.cpu_ms()).sum();
    let mut sorted: Vec<f64> = windows.iter().flat_map(|w| w.latencies_ms()).collect();
    sorted.sort_by(f64::total_cmp);
    BTreeMap::from([
        ("setup_s", median(&out.setup_s)),
        ("ops_per_s", ratio(ops as f64, seconds)),
        ("op_p50_ms", percentile(&sorted, 50.0)),
        ("op_p90_ms", percentile(&sorted, 90.0)),
        ("cpu_ms_per_op", ratio(cpu_ms, ops as f64)),
        ("peak_rss_mb", t.peak_rss_mb),
        ("ok_rate", 1.0 - ratio(t.failed as f64, t.attempted as f64)),
    ])
}

/// Every per-layer metric, name → (value, unit). The same names for every
/// workload; a layer a workload does not exercise reads 0.
pub fn per_layer(out: &Outcome, span_ns: f64) -> Vec<(String, f64, &'static str)> {
    let s = &out.cx.s;
    let c = &out.timed.counters;
    let ops = out.timed.attempted as f64;
    let rtt = s.mean("wire.rtt");
    let handler = s.mean("wire.handler");
    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("smoqe_xml.parse_ms".into(), s.mean("xml.parse"), "ms"),
        (
            "smoqe_xml.parse_mb_per_s".into(),
            ratio(s.sum("xml.parse_bytes") / 1e6, s.sum("xml.parse") / 1e3),
            "MB/s",
        ),
        (
            "smoqe_xml.tokenize_mb_per_s".into(),
            ratio(
                s.sum("xml.tokenize_bytes") / 1e6,
                s.sum("xml.tokenize") / 1e3,
            ),
            "MB/s",
        ),
        (
            "smoqe_xml.snapshot_save_ms".into(),
            s.mean("xml.save"),
            "ms",
        ),
        (
            "smoqe_xml.snapshot_load_ms".into(),
            s.mean("xml.load"),
            "ms",
        ),
        (
            "smoqe_xml.snapshot_bytes_per_version".into(),
            s.mean("xml.version_bytes"),
            "bytes",
        ),
        (
            "smoqe_xpath.normalize_us".into(),
            s.mean("xpath.normalize"),
            "us",
        ),
        ("smoqe_rewrite.rewrite_ms".into(), s.mean("rewrite"), "ms"),
        (
            "smoqe_automata.compile_ms".into(),
            s.mean("automata.compile"),
            "ms",
        ),
        (
            "smoqe_automata.mfa_size".into(),
            s.mean("automata.mfa_size"),
            "count",
        ),
        (
            "smoqe.compiled_hit_ratio".into(),
            ratio(
                c.compiled_hits as f64,
                (c.compiled_hits + c.compiled_misses) as f64,
            ),
            "ratio",
        ),
        (
            "smoqe.compile_misses".into(),
            c.compiled_misses as f64,
            "count",
        ),
        ("smoqe_hype.walk_ms".into(), s.mean("hype.walk"), "ms"),
        (
            "smoqe_hype.walk_nodes_per_s".into(),
            ratio(s.sum("hype.walk_nodes"), s.sum("hype.walk") / 1e3),
            "nodes/s",
        ),
        (
            "smoqe_hype.nodes_visited_per_op".into(),
            ratio(s.sum("hype.nodes_visited"), ops),
            "count",
        ),
        (
            "smoqe_hype.afa_values_per_op".into(),
            ratio(s.sum("hype.afa_values"), ops),
            "count",
        ),
        ("smoqe_hype.batch_ms".into(), s.mean("hype.batch"), "ms"),
        (
            "smoqe_hype.parallel_ms".into(),
            s.mean("hype.parallel"),
            "ms",
        ),
        (
            "smoqe_hype.parallel_speedup".into(),
            ratio(s.sum("hype.parallel_seq"), s.sum("hype.parallel")),
            "ratio",
        ),
        (
            "smoqe_hype.max_shard_fraction".into(),
            s.mean("hype.max_shard"),
            "ratio",
        ),
        (
            "smoqe_hype.index_build_ms".into(),
            s.mean("hype.index_build"),
            "ms",
        ),
        (
            "smoqe_hype.pruned_fraction".into(),
            s.mean("hype.pruned"),
            "ratio",
        ),
        (
            "smoqe.index_hit_ratio".into(),
            ratio(c.index_hits as f64, (c.index_hits + c.index_misses) as f64),
            "ratio",
        ),
        (
            "smoqe.index_invalidations".into(),
            c.index_invalidations as f64,
            "count",
        ),
        ("smoqe.store_insert_ms".into(), s.mean("store.insert"), "ms"),
        (
            "smoqe.apply_edit_ms".into(),
            s.mean("store.apply_edit"),
            "ms",
        ),
        ("smoqed.rtt_ms".into(), rtt, "ms"),
        ("smoqed.handler_ms".into(), handler, "ms"),
        (
            "smoqed.wire_overhead_ms".into(),
            if s.count("wire.rtt") == 0 {
                0.0
            } else {
                rtt - handler
            },
            "ms",
        ),
        ("smoqed.codec_us".into(), s.mean("wire.codec"), "us"),
        (
            "smoqed.bytes_per_op".into(),
            ratio(s.sum("wire.bytes"), ops),
            "bytes",
        ),
    ];
    let table = layer_table(out);
    for layer in LAYERS {
        m.push((
            format!("self_ms_per_op.{layer}"),
            table.get(layer).copied().unwrap_or(0.0),
            "ms",
        ));
    }
    let op_spans = out
        .cx
        .tr
        .spans()
        .iter()
        .filter(|sp| !sp.name.starts_with("twin."))
        .count() as f64;
    let spans_per_op = ratio(op_spans, ops);
    let mean_op_ms = ratio(
        out.timed.latencies_ms().sum(),
        out.timed.latencies_ms().count() as f64,
    );
    m.push(("trace.spans_per_op".into(), spans_per_op, "count"));
    m.push((
        "trace.overhead_pct".into(),
        ratio(spans_per_op * span_ns / 1e6, mean_op_ms) * 100.0,
        "%",
    ));
    m
}

/// Self time per layer and operation. Spans give the client side; the
/// server's handler time, which the client sees inside the
/// `smoqed.roundtrip` span, is taken out of it and split by crate from
/// the in-process twin (see `wire::Twin::measure`).
fn layer_table(out: &Outcome) -> BTreeMap<String, f64> {
    let ops = out.timed.attempted as f64;
    let s = &out.cx.s;
    let mut table = out.cx.tr.layer_table(out.timed.attempted);
    if s.count("wire.handler") > 0 {
        let smoqed = table.entry("smoqed".into()).or_insert(0.0);
        *smoqed = (*smoqed - ratio(s.sum("wire.handler"), ops)).max(0.0);
        for (layer, sample) in wire::ATTRIBUTED {
            *table.entry(layer.into()).or_insert(0.0) += ratio(s.sum(sample), ops);
        }
    }
    table
}

fn print_self_time_table(out: &Outcome) {
    let ops = out.timed.attempted;
    println!("# self time per span (ms per operation over {ops} operations):");
    for (name, (ns, count)) in out.cx.tr.self_times() {
        println!(
            "#   {name:<28} {:>10.4} ms/op  {count:>8} spans",
            ratio(ns as f64 / 1e6, ops as f64)
        );
    }
    println!("# self time per layer (ms per operation; server handler time split by crate):");
    for (layer, ms) in layer_table(out) {
        println!("#   {layer:<16} {ms:>10.4}");
    }
}

fn json_result(out: &Outcome, metrics: &[(String, f64, &str)]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        out.timed.failed == 0,
        out.timed.attempted.max(1),
        out.timed.failed
    )
}

fn single_run(args: &Args) -> ExitCode {
    let workload = args.workload.as_deref().expect("checked by parse_args");
    println!(
        "# perfbench workload={workload} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    println!("# git revision: {}", git_revision());
    println!(
        "# SMOQE_KERNEL={}",
        std::env::var("SMOQE_KERNEL").unwrap_or_else(|_| "(unset)".into())
    );
    let cfg = Config {
        seed: args.seed,
        budget: Budget::Seconds(args.seconds),
        trace: args.trace,
        scale: Scale::Full,
        setup_rounds: if args.trace { 1 } else { SETUP_ROUNDS },
        setups_per_round: if args.trace { 1 } else { SETUPS_PER_ROUND },
        log_ops: false,
    };
    let out = run_workload(workload, &cfg, &mut announce);
    let t = &out.timed;
    println!(
        "# timed phase: {} operations in {} cycles over {:.3} s, {} failed",
        t.attempted,
        t.cycles.len(),
        t.elapsed_s,
        t.failed
    );
    let cycle_s: Vec<f64> = t.cycles.iter().map(|c| c.seconds).collect();
    let [q1, q2, q3] = quartiles(&cycle_s);
    println!("# seconds per cycle: q1 {q1:.4}, median {q2:.4}, q3 {q3:.4}");
    let windows = harness::windows(&t.cycles, out.header.cycles_per_window);
    let as_run = |w: &harness::Window| ratio(w.ops() as f64, w.seconds() / w.host);
    let [r1, r2, r3] = quartiles(&windows.iter().map(as_run).collect::<Vec<_>>());
    let host: Vec<f64> = windows.iter().map(|w| w.host * host::NOMINAL).collect();
    let [h1, h2, h3] = quartiles(&host);
    println!(
        "# {} windows of {} cycles: ops/s as run q1 {r1:.2}, median {r2:.2}, q3 {r3:.2}; \
         host yardstick steps/us q1 {h1:.2}, median {h2:.2}, q3 {h3:.2} (nominal {})",
        windows.len(),
        out.header.cycles_per_window.max(1),
        host::NOMINAL
    );
    println!(
        "# resident MiB: {:.1} before the warm-up, {:.1} after it, {:.1} at the peak",
        t.rss_before_warm_up_mb, t.rss_after_warm_up_mb, t.peak_rss_mb
    );
    println!(
        "# setup_s per round: {}",
        out.setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let span_ns = Tracer::calibrate_span_ns();
        print_self_time_table(&out);
        println!("# one span costs {span_ns:.1} ns");
        let dir = std::path::Path::new("perfbench/traces");
        let path = dir.join(format!("{workload}.jsonl"));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out.cx.tr.dump())) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written ({e})"),
        }
        per_layer(&out, span_ns)
    } else {
        let e2e = end_to_end(&out);
        END_TO_END
            .iter()
            .map(|(name, unit)| (name.to_string(), e2e[name], *unit))
            .collect()
    };
    println!("{}", json_result(&out, &metrics));
    if t.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads `"name": {"value": v` pairs back from a result line.
fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(start) = line.find("\"metrics\": {") else {
        return out;
    };
    for part in line[start + 12..].split("}, ") {
        let mut pieces = part.split("\": {\"value\": ");
        let (Some(name), Some(rest)) = (pieces.next(), pieces.next()) else {
            continue;
        };
        let name = name.trim_start_matches(['{', ' ', '"']);
        if let Some(v) = rest
            .split(',')
            .next()
            .and_then(|v| v.trim().parse::<f64>().ok())
        {
            out.insert(name.to_string(), v);
        }
    }
    out
}

/// Runs each workload `k` times (seeds `seed..seed+k`, or `seed` each
/// time with `--same-seed`; one process each) and prints each end-to-end
/// metric's median and quartile spread.
fn steady(args: &Args, k: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut ok = true;
    for w in workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..k as u64 {
            let seed = if args.same_seed {
                args.seed
            } else {
                args.seed + i
            };
            let output = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .output();
            let output = match output {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: cannot run {w}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            if !output.status.success() || !last.contains("\"correct\": true") {
                eprintln!("perfbench: {w} seed {seed} failed: {last}");
                ok = false;
                continue;
            }
            for (name, v) in parse_metrics(last) {
                values.entry(name).or_default().push(v);
            }
            eprintln!("perfbench: {w} seed {seed} done");
        }
        if args.same_seed {
            println!("# steadiness of {w} over {k} runs of seed {}", args.seed);
        } else {
            println!("# steadiness of {w} over {k} seeds from {}", args.seed);
        }
        println!(
            "#   {:<16} {:>14} {:>14} {:>14} {:>8}",
            "metric", "q1", "median", "q3", "spread"
        );
        for (name, _) in END_TO_END {
            let v = values.get(name).cloned().unwrap_or_default();
            let [q1, _, q3] = quartiles(&v);
            let med = median(&v);
            let runs: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!(
                "#   {name:<16} {q1:>14.6} {med:>14.6} {q3:>14.6} {:>8.4}   runs: {}",
                measure::spread(&v),
                runs.join(" ")
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.steady {
        Some(k) => steady(&args, k),
        None => single_run(&args),
    }
}
