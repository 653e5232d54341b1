//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <grants|bytes|sim_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads:
//! - `grants`: the control plane with small frames. A closed loop gives
//!   `grant_rps`; an open loop at a fixed offered rate gives the grant
//!   latency percentiles, each request timed from its due time.
//! - `bytes`: the data plane with large frames. Every published segment is
//!   fanned out to two subscribers and verified byte for byte.
//! - `sim_sweep`: the offline Figure 7/8 sweep, with no sockets.
//!
//! Every run sets all three up and then measures them for `--seconds` in
//! interleaved rounds: the chosen workload gets half of each round and the
//! other two a quarter each. So each run reports every end-to-end metric,
//! a change aimed at one workload is checked against the others in the
//! same run, and every metric samples the whole run instead of one stretch
//! of a host whose speed drifts. `setup_s` is the run's whole set-up and
//! `peak_rss_mb` the run's peak, with every service alive.
//!
//! With `--trace 1` the run instead reports per-layer metrics, from spans
//! the benchmark records around its own calls into each crate, plus the
//! same-run socket baselines. The program under test is not instrumented.
//!
//! Every run checks its outputs (grant identity against an offline
//! `DhbScheduler` replay, byte identity of every segment, publish counts,
//! and service counters against the client's) and exits nonzero when one
//! is wrong. The last line of standard output is the JSON result.

mod client;
mod live;
mod netbase;
mod oracle;
mod report;
mod ringlayer;
mod sim;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::PhaseOut;

const WORKLOADS: [&str; 3] = ["grants", "bytes", "sim_sweep"];
/// The end-to-end metrics of the result line, as `BENCHMARK.json` lists
/// them: what each workload costs in CPU, memory and set-up, and what it
/// computes. On a shared 2-vCPU host the hypervisor steals from 1% to 15%
/// of the VM's time in bursts, and the wall-clock figures (`grant_rps`,
/// the grant latencies, `bytes_mbps`, `sim_requests_per_s`) move by up to
/// half with it while CPU time per unit of work does not, since stolen
/// time is not counted to a thread. The wall-clock figures are printed in
/// the table with their sample counts, next to the share of time stolen.
const E2E: [&str; 8] = [
    "setup_s",
    "peak_rss_mb",
    "served_ratio",
    "grant_cpu_us",
    "bytes_cpu_ns",
    "sim_cpu_ns_per_request",
    "sim_avg_streams",
    "sim_max_streams",
];
/// The run is cut into rounds of about this length. Each round gives the
/// chosen workload half its time and each companion a quarter, so every
/// metric samples the whole run rather than one stretch of it.
const ROUND_SECONDS: f64 = 3.0;
const PRIMARY_SHARE: f64 = 0.5;
const COMPANION_SHARE: f64 = 0.25;
/// How long the loopback write baseline runs in a traced run.
const BASELINE_SECONDS: f64 = 1.0;

/// Per-layer metrics, each with the end-to-end metric it should move.
const LAYERS: &[(&str, &str, &str)] = &[
    ("core.schedule_ns", "ns", CORE_MOVES),
    ("core.pop_slot_ns", "ns", CORE_MOVES),
    (
        "core.pops_per_request",
        "count",
        "scales core.pop_slot_ns into the per-grant budget",
    ),
    ("core.share_ratio", "ratio", "sim_avg_streams"),
    ("core.new_instances_per_request", "count", "sim_avg_streams"),
    (
        "sim.engine_self_ns_per_slot",
        "ns",
        "sim_cpu_ns_per_request on sim_sweep",
    ),
    ("wire.request_encode_ns", "ns", GRANT_MOVES),
    ("wire.grant_encode_ns", "ns", GRANT_MOVES),
    ("wire.grant_decode_ns", "ns", GRANT_MOVES),
    ("wire.grant_bytes", "B", GRANT_MOVES),
    ("load.frames_per_read", "count", GRANT_MOVES),
    ("wire.chunk_decode_ns_per_kib", "ns", BYTE_MOVES),
    ("ring.synthesize_ns_per_kib", "ns", BYTE_MOVES),
    ("ring.checksum_ns_per_kib", "ns", BYTE_MOVES),
    ("ring.publish_ns", "ns", BYTE_MOVES),
    ("ring.read_ns", "ns", BYTE_MOVES),
    ("load.verify_ns_per_kib", "ns", BYTE_MOVES),
    ("svc.ring.published", "count", RING_MOVES),
    ("svc.ring.fanout", "count", RING_MOVES),
    ("svc.fanout_degree", "ratio", RING_MOVES),
    ("svc.ring.evictions", "count", RING_MOVES),
    ("svc.ring.gaps", "count", RING_MOVES),
    (
        "svc.cpu_us_per_grant",
        "us",
        "grant_cpu_us, grant_rps on grants",
    ),
    (
        "svc.cpu_ns_per_byte",
        "ns",
        "bytes_cpu_ns, bytes_mbps on bytes",
    ),
    ("svc.shutdown_ms", "ms", "setup_s and teardown"),
    (
        "svc.unattributed_us",
        "us",
        "grant_p50_us on grants: queue waits, wake-ups, locks",
    ),
    (
        "net.echo_rtt_p50_us",
        "us",
        "the same-run floor under grant_p50_us",
    ),
    (
        "net.loopback_mbps",
        "MB/s",
        "the same-run ceiling over bytes_mbps",
    ),
    (
        "ratio.bytes_over_loopback",
        "ratio",
        "bytes_mbps over its same-run socket ceiling",
    ),
    (
        "gen.late_p99_us",
        "us",
        "run validity: open-loop sends must leave on time",
    ),
    (
        "gen.cpu_share",
        "ratio",
        "grant_cpu_us: the client's part of it",
    ),
];
const CORE_MOVES: &str =
    "sim_cpu_ns_per_request on sim_sweep most; grant_cpu_us, grant_rps, grant_p99_us on grants partly; nothing on bytes";
const GRANT_MOVES: &str = "grant_cpu_us, grant_rps, grant_p50_us on grants";
const BYTE_MOVES: &str = "bytes_cpu_ns, bytes_mbps on bytes; nothing on grants";
const RING_MOVES: &str = "served_ratio, bytes_cpu_ns, bytes_mbps on bytes";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Sets every workload up, runs the rounds, and finishes each workload.
fn run_all(primary: &str, seed: u64, seconds: f64) -> std::io::Result<Vec<PhaseOut>> {
    let mut grants = live::Live::start("grants", live::LiveParams::grants(), seed)?;
    let mut bytes = live::Live::start("bytes", live::LiveParams::bytes(), seed)?;
    let mut sim = sim::SimRun::start(seed);
    let rounds = (seconds / ROUND_SECONDS).round().max(1.0);
    let slice = |name: &str| {
        let share = if name == primary {
            PRIMARY_SHARE
        } else {
            COMPANION_SHARE
        };
        Duration::from_secs_f64(seconds / rounds * share)
    };
    for _ in 0..rounds as u32 {
        grants.closed(slice("grants") / 2)?;
        grants.open(slice("grants") / 2)?;
        bytes.closed(slice("bytes"))?;
        sim.run_for(slice("sim_sweep"));
    }
    Ok(vec![
        grants.finish_grants(),
        bytes.finish_bytes(),
        sim.finish(),
    ])
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn repo_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The commit the checkout is at, when it is a git checkout.
fn git_rev() -> String {
    let git = repo_dir().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV digest of every source file of the workspace crates and of the
/// benchmark: identifies the code measured when the checkout has no git.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&repo_dir().join("crates"), &mut files);
    walk(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
        &mut files,
    );
    files.sort();
    let words = files.iter().flat_map(|f| {
        let bytes = std::fs::read(f).unwrap_or_default();
        bytes.into_iter().map(u64::from).collect::<Vec<_>>()
    });
    format!("{:016x}", util::fnv_words(words))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <grants|bytes|sim_sweep> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.trace {
        trace::enable();
    }
    let cpu0 = util::host_cpu_ticks();
    let phases = match run_all(args.workload, args.seed, args.seconds) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let peak_rss_mb = util::peak_rss_mb();
    let cpu1 = util::host_cpu_ticks();
    let steal_share = (cpu1.1 - cpu0.1) as f64 / (cpu1.0 - cpu0.0).max(1) as f64;
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let mut errors: Vec<String> = phases.iter().flat_map(|p| p.errors.clone()).collect();

    let mut e2e: Vec<report::Metric> = vec![
        report::Metric::new("setup_s", phases.iter().map(|p| p.setup_s).sum(), "s", 3),
        report::Metric::new("peak_rss_mb", peak_rss_mb, "MiB", 1),
        report::Metric::new(
            "served_ratio",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
            attempted,
        ),
    ];
    e2e.extend(phases.iter().flat_map(|p| p.metrics.iter().cloned()));

    // Per-layer values: `core.*` from the chosen workload, the rest from
    // the phase that measures them.
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    for p in &phases {
        for &(name, value, _) in &p.layers {
            if p.name == args.workload || !name.starts_with("core.") {
                layers.entry(name).or_insert(value);
            }
        }
    }
    let grants = phases
        .iter()
        .find(|p| p.name == "grants")
        .expect("grants ran");
    let e2e_value = |name: &str| {
        e2e.iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let mut baseline_note = String::new();
    if args.trace {
        let g = |name: &str| {
            grants
                .layers
                .iter()
                .find(|l| l.0 == name)
                .map_or(0.0, |l| l.1)
        };
        let echo = g("net.echo_rtt_p50_us");
        let chunk = vod_svc::MAX_FRAME_LEN + 4;
        let loopback = match netbase::loopback_mbps(chunk, BASELINE_SECONDS) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: loopback baseline failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let p50 = e2e_value("grant_p50_us");
        let named_us = echo
            + (g("wire.request_encode_ns")
                + g("wire.grant_encode_ns")
                + g("wire.grant_decode_ns")
                + g("core.schedule_ns")
                + g("core.pop_slot_ns") * g("core.pops_per_request"))
                / 1e3;
        layers.insert("net.loopback_mbps", loopback);
        layers.insert("svc.unattributed_us", p50 - named_us);
        layers.insert(
            "ratio.bytes_over_loopback",
            e2e_value("bytes_mbps") / loopback,
        );
        baseline_note = format!(
            "socket baselines (loopback interface): grant-sized echoes interleaved with the open \
             loop; {chunk} B writes to two sockets"
        );
    }

    for m in e2e.iter().filter(|m| E2E.contains(&m.name)) {
        if !m.value.is_finite() {
            errors.push(format!("{} has no value ({} samples)", m.name, m.samples));
        }
    }
    let mut metrics = Vec::new();
    if args.trace {
        for &(name, unit, _) in LAYERS {
            let v = layers.get(name).copied().unwrap_or(f64::NAN);
            if !v.is_finite() {
                errors.push(format!("per-layer {name} has no value"));
            }
            metrics.push((name, v, unit));
        }
    } else {
        for name in E2E {
            let m = e2e
                .iter()
                .find(|m| m.name == name)
                .expect("every gated metric measured");
            metrics.push((m.name, m.value, m.unit));
        }
    }
    let correct = errors.is_empty();

    // Run record: everything needed to check two runs are like for like.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut record = format!(
        "{{\"record\":{{\"git_rev\":{},\"source_digest\":{},\"nproc\":{nproc},\"seed\":{},\
         \"workload\":{},\"seconds\":{},\"trace\":{},\"round_seconds\":{ROUND_SECONDS},\
         \"primary_share\":{PRIMARY_SHARE},\"companion_share\":{COMPANION_SHARE},\
         \"params\":{{",
        json_str(&git_rev()),
        json_str(&source_digest()),
        args.seed,
        json_str(args.workload),
        args.seconds,
        u8::from(args.trace),
    );
    for (i, p) in phases.iter().enumerate() {
        let _ = write!(
            record,
            "{}{}:{}",
            if i == 0 { "" } else { "," },
            json_str(p.name),
            json_str(&p.params)
        );
    }
    record.push_str("}}}");

    let mut out = String::new();
    let _ = writeln!(out, "{record}");
    let _ = writeln!(
        out,
        "== {} seed {} ({} s in rounds of ~{ROUND_SECONDS} s: {:.0}% {}, {:.0}% each other \
         workload; trace {}), nproc {nproc}",
        args.workload,
        args.seed,
        args.seconds,
        PRIMARY_SHARE * 100.0,
        args.workload,
        COMPANION_SHARE * 100.0,
        u8::from(args.trace),
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:<8} {:>9}",
        "end-to-end", "value", "unit", "samples"
    );
    for m in &e2e {
        let _ = writeln!(
            out,
            "{:<22} {:>14.4} {:<8} {:>9}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let _ = writeln!(
        out,
        "{:<22} {:>14.6} {:<8} {:>9}   ({failed} failed of {attempted})",
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        attempted
    );
    let _ = writeln!(
        out,
        "host: {:.1}% of this VM's CPU time was stolen by the hypervisor during the run",
        steal_share * 100.0
    );
    for p in &phases {
        let _ = writeln!(
            out,
            "{}: set-up {:.4} s (median of its repetitions)",
            p.name, p.setup_s
        );
        for n in &p.notes {
            let _ = writeln!(out, "{n}");
        }
    }
    let dir = out_dir();
    let _ = std::fs::create_dir_all(&dir);
    let untraced = dir.join(format!("e2e-{}-{}.txt", args.workload, args.seed));
    if args.trace {
        let _ = writeln!(out, "{baseline_note}");
        let _ = writeln!(
            out,
            "{:<30} {:>14} {:<6}  should move",
            "per-layer", "value", "unit"
        );
        for &(name, v, unit) in &metrics {
            let doc = LAYERS.iter().find(|l| l.0 == name).map_or("", |l| l.2);
            let _ = writeln!(out, "{name:<30} {v:>14.4} {unit:<6}  {doc}");
        }
        let _ = writeln!(
            out,
            "{:<10} {:<6} {:<18} {:>10} {:>12} {:>12}",
            "phase", "layer", "call", "calls", "total ms", "self ms"
        );
        for p in &phases {
            for ((layer, call), a) in &p.aggs {
                let _ = writeln!(
                    out,
                    "{:<10} {layer:<6} {call:<18} {:>10} {:>12.2} {:>12.2}",
                    p.name,
                    a.calls,
                    a.total_ns as f64 / 1e6,
                    a.self_ns as f64 / 1e6
                );
            }
            let mut per_layer: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
            for ((layer, _), a) in &p.aggs {
                let e = per_layer.entry(layer).or_default();
                e.0 += a.total_ns;
                e.1 += a.self_ns;
            }
            for (layer, (total, own)) in per_layer {
                let _ = writeln!(
                    out,
                    "{:<10} {layer:<6} {:<18} {:>10} {:>12.2} {:>12.2}",
                    p.name,
                    "(layer)",
                    "",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                );
            }
        }
        match std::fs::read_to_string(&untraced) {
            Ok(text) => {
                let _ = writeln!(out, "tracing overhead (traced - untraced, same seed):");
                for line in text.lines() {
                    let mut f = line.split_whitespace();
                    if let (Some(name), Some(Ok(base))) =
                        (f.next(), f.next().map(str::parse::<f64>))
                    {
                        let traced = e2e_value(name);
                        let _ = writeln!(
                            out,
                            "  {name:<22} {:>+14.4} ({:+.1}%)",
                            traced - base,
                            (traced - base) / base * 100.0
                        );
                    }
                }
            }
            Err(_) => {
                let _ = writeln!(
                    out,
                    "tracing overhead: run --trace 0 with the same workload and seed first"
                );
            }
        }
        let spans = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_raw(&spans) {
            eprintln!("warning: could not write {}: {e}", spans.display());
        }
    } else {
        let text: String = e2e
            .iter()
            .map(|m| format!("{} {}\n", m.name, m.value))
            .collect();
        let _ = std::fs::write(&untraced, text);
    }
    for e in &errors {
        let _ = writeln!(out, "CHECK FAILED: {e}");
    }

    let mut result = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            result,
            "{}{}:{{\"value\":{v},\"unit\":{}}}",
            if i == 0 { "" } else { "," },
            json_str(name),
            json_str(unit)
        );
    }
    result.push_str("}}");
    let _ = writeln!(out, "{result}");
    let history = format!("{record}\n{result}\n");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))
    {
        let _ = f.write_all(history.as_bytes());
    }
    print!("{out}");
    let _ = std::io::stdout().flush();
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
