//! The `vodsim` command-line interface.
//!
//! A thin, dependency-free front-end over the library: rate sweeps for any
//! protocol, the Section-4 VBR analysis for any film preset, multi-video
//! server policies, and the DHB schedule renderer. The binary lives in
//! `src/bin/vodsim.rs`; everything testable lives here.
//!
//! ```text
//! vodsim sweep --protocol dhb --rates 1,10,100 [--segments 99]
//!              [--duration-mins 120] [--slots 2000] [--seed 42]
//!              [--loss 0.05] [--slot-cap 8] [--outage 600:900] [--fault-seed 7]
//! vodsim vbr [--preset matrix|action|drama|toon] [--max-wait-secs 60] [--seed 42]
//! vodsim server [--videos 20] [--total-rate 500] [--zipf 1.0] [--slots 1200]
//! vodsim schedule [--segments 6] [--arrivals 1,3]
//! ```

use std::fmt;

use dhb_core::{Dhb, DhbScheduler};
use vod_obs::{jsonl, EventKind, Journal, Observer};
use vod_protocols::npb::{npb_mapping_for, npb_streams_for};
use vod_protocols::{
    DynamicNpb, DynamicSb, FixedBroadcast, Patching, StreamTapping, TappingPolicy,
    UniversalDistribution,
};
use vod_server::{Catalog, Policy, Server};
use vod_sim::{render_table, FaultPlan, PoissonProcess, RateSweep, SlottedRun, Table};
use vod_trace::periods::relaxed_segments;
use vod_trace::{BroadcastPlan, FilmPreset};
use vod_types::{ArrivalRate, Seconds, Slot, VideoSpec};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `vodsim sweep …`
    Sweep {
        /// Protocol key (see [`PROTOCOLS`]).
        protocol: String,
        /// Arrival rates in requests per hour.
        rates: Vec<f64>,
        /// Segment count.
        segments: usize,
        /// Video duration in minutes.
        duration_mins: f64,
        /// Measured slots.
        slots: u64,
        /// Seed.
        seed: u64,
        /// Bernoulli per-transmission loss probability.
        loss: f64,
        /// Hard per-slot stream cap (slotted protocols only).
        slot_cap: Option<u32>,
        /// Channel outage window `[start, end)` in seconds.
        outage: Option<(f64, f64)>,
        /// Fault RNG seed (independent of the arrival seed).
        fault_seed: Option<u64>,
        /// Worker threads for the per-rate runs (output is identical for
        /// every value; only wall-clock time changes).
        jobs: usize,
    },
    /// `vodsim vbr …`
    Vbr {
        /// Film preset key.
        preset: String,
        /// Maximum waiting time in seconds.
        max_wait_secs: f64,
        /// Seed.
        seed: u64,
    },
    /// `vodsim server …`
    ServerPolicies {
        /// Catalog size.
        videos: usize,
        /// Total request rate (per hour).
        total_rate: f64,
        /// Zipf exponent.
        zipf: f64,
        /// Measured slots.
        slots: u64,
        /// Seed.
        seed: u64,
    },
    /// `vodsim schedule …`
    Schedule {
        /// Segment count.
        segments: usize,
        /// Arrival slots.
        arrivals: Vec<u64>,
    },
    /// `vodsim trace …` — one observed run with the event journal and
    /// metrics registry attached.
    Trace {
        /// Slotted protocol key (see [`TRACE_PROTOCOLS`]).
        protocol: String,
        /// Arrival rate in requests per hour.
        rate: f64,
        /// Segment count.
        segments: usize,
        /// Video duration in minutes.
        duration_mins: f64,
        /// Measured slots.
        slots: u64,
        /// Seed.
        seed: u64,
        /// Bernoulli per-transmission loss probability.
        loss: f64,
        /// Hard per-slot stream cap.
        slot_cap: Option<u32>,
        /// Channel outage window `[start, end)` in seconds.
        outage: Option<(f64, f64)>,
        /// Fault RNG seed (independent of the arrival seed).
        fault_seed: Option<u64>,
        /// Where to write the JSONL event journal.
        events_out: Option<String>,
        /// Where to write the metrics snapshot (JSON).
        metrics_out: Option<String>,
        /// Heartbeat interval in slots (0 disables).
        progress: Option<u64>,
        /// Journal ring capacity (events kept; per-kind counts survive
        /// eviction regardless).
        events_cap: Option<usize>,
    },
    /// `vodsim serve …` — run the live control-plane service (vod-svc).
    Serve {
        /// Bind address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// Path to a heterogeneous catalog file (the TOML subset documented
        /// in `vod_server::serve_catalog`). Overrides `videos`/`segments`/
        /// `duration_mins`, which describe a uniform catalog.
        catalog: Option<String>,
        /// Catalog size (valid video ids are `0..videos`).
        videos: u32,
        /// Segments per video.
        segments: usize,
        /// Video duration in minutes.
        duration_mins: f64,
        /// Scheduler shard count.
        shards: usize,
        /// Virtual-clock time dilation (1 = real time).
        dilation: u32,
        /// Bounded per-shard admission-queue depth.
        queue_cap: usize,
        /// Per-session grant replay ring depth (session resume).
        replay_cap: usize,
        /// Restart budget before a panicking shard is marked down.
        max_restarts: u32,
        /// Run duration in seconds; 0 serves until the process is killed.
        run_secs: f64,
    },
    /// `vodsim vodtop …` — watch a live server through its telemetry
    /// frames.
    Vodtop {
        /// The server's serving address.
        addr: String,
        /// How many telemetry refreshes to take after the first snapshot,
        /// one per second.
        intervals: u32,
        /// Append each full snapshot as one JSON line to this file.
        snapshot_out: Option<String>,
        /// Also fetch up to this many recent raw spans on the last refresh.
        spans: u32,
    },
    /// `vodsim analyze …` — statistical profile of a trace (preset or
    /// imported file).
    Analyze {
        /// Film preset key, ignored if `file` is given.
        preset: String,
        /// Path to a trace in the `vod_trace::io` interchange format.
        file: Option<String>,
        /// Seed for preset generation.
        seed: u64,
        /// Optional path to export the analysed trace to.
        export: Option<String>,
    },
    /// `vodsim help` or `--help`.
    Help,
}

/// Protocol keys accepted by `sweep --protocol`.
pub const PROTOCOLS: [&str; 7] = ["dhb", "ud", "dnpb", "dsb", "tapping", "patching", "npb"];

/// Slotted protocol keys accepted by `trace --protocol` (the continuous
/// protocols have no slot clock for the journal to follow).
pub const TRACE_PROTOCOLS: [&str; 5] = ["dhb", "ud", "dnpb", "dsb", "npb"];

/// Film preset keys accepted by `vbr --preset`.
pub const PRESETS: [&str; 4] = ["matrix", "action", "drama", "toon"];

/// A CLI usage error, rendered to the user verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n\n{}", self.0, usage())
    }
}

impl std::error::Error for UsageError {}

/// The usage banner.
#[must_use]
pub fn usage() -> String {
    "usage:\n  \
     vodsim sweep --protocol <dhb|ud|dnpb|dsb|tapping|patching|npb> --rates <r1,r2,…>\n          \
     [--segments 99] [--duration-mins 120] [--slots 2000] [--seed 42]\n          \
     [--loss 0.05] [--slot-cap 8] [--outage <start:end secs>] [--fault-seed 7]\n          \
     [--jobs 4]\n  \
     vodsim vbr [--preset <matrix|action|drama|toon>] [--max-wait-secs 60] [--seed 42]\n  \
     vodsim server [--videos 20] [--total-rate 500] [--zipf 1.0] [--slots 1200] [--seed 42]\n  \
     vodsim schedule [--segments 6] [--arrivals 1,3]\n  \
     vodsim trace [--protocol <dhb|ud|dnpb|dsb|npb>] [--rate 100] [--segments 99]\n          \
     [--duration-mins 120] [--slots 2000] [--seed 42]\n          \
     [--loss 0.05] [--slot-cap 8] [--outage <start:end secs>] [--fault-seed 7]\n          \
     [--events-out trace.jsonl] [--metrics-out metrics.json]\n          \
     [--progress <slots>] [--events-cap 1048576]\n  \
     vodsim analyze [--preset <matrix|action|drama|toon>] [--file trace.txt]\n          \
     [--seed 42] [--export out.txt]\n  \
     vodsim serve [--addr 127.0.0.1:7400] [--catalog catalog.toml]\n          \
     [--videos 4] [--segments 120] [--duration-mins 120]\n          \
     [--shards 2] [--dilation 1] [--queue-cap 64] [--replay-cap 1024]\n          \
     [--max-restarts 3] [--run-secs 0]\n  \
     vodsim vodtop --addr <host:port> [--intervals 5]\n          \
     [--snapshot-out telemetry.jsonl] [--spans 0]\n  \
     vodsim help"
        .to_owned()
}

/// Parses an argument list (without the program name).
///
/// # Errors
///
/// Returns a [`UsageError`] describing the first problem found.
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let mut it = args.iter().map(String::as_str);
    let sub = it.next().unwrap_or("help");
    let rest: Vec<&str> = it.collect();
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "sweep" => {
            let mut opts = Options::parse(&rest)?;
            let cmd = Command::Sweep {
                protocol: opts
                    .take_str("protocol")?
                    .ok_or_else(|| UsageError("sweep requires --protocol".to_owned()))?,
                rates: opts
                    .take_f64_list("rates")?
                    .ok_or_else(|| UsageError("sweep requires --rates".to_owned()))?,
                segments: opts.take_usize("segments")?.unwrap_or(99),
                duration_mins: opts.take_f64("duration-mins")?.unwrap_or(120.0),
                slots: opts.take_u64("slots")?.unwrap_or(2_000),
                seed: opts.take_u64("seed")?.unwrap_or(42),
                loss: opts.take_f64("loss")?.unwrap_or(0.0),
                slot_cap: opts.take_u64("slot-cap")?.map(|v| v as u32),
                outage: opts.take_outage("outage")?,
                fault_seed: opts.take_u64("fault-seed")?,
                jobs: opts
                    .take_usize("jobs")?
                    .unwrap_or_else(vod_sim::default_jobs),
            };
            opts.finish()?;
            if let Command::Sweep {
                protocol,
                rates,
                segments,
                loss,
                slot_cap,
                outage,
                jobs,
                ..
            } = &cmd
            {
                if !PROTOCOLS.contains(&protocol.as_str()) {
                    return Err(UsageError(format!(
                        "unknown protocol {protocol:?}; expected one of {PROTOCOLS:?}"
                    )));
                }
                if rates.is_empty() {
                    return Err(UsageError("--rates must not be empty".to_owned()));
                }
                if *segments == 0 {
                    return Err(UsageError("--segments must be positive".to_owned()));
                }
                if !(0.0..1.0).contains(loss) {
                    return Err(UsageError("--loss must be in [0, 1)".to_owned()));
                }
                if slot_cap == &Some(0) {
                    return Err(UsageError("--slot-cap must be positive".to_owned()));
                }
                if let Some((start, end)) = outage {
                    if start >= end {
                        return Err(UsageError(
                            "--outage window must be non-empty (start < end)".to_owned(),
                        ));
                    }
                }
                if *jobs == 0 {
                    return Err(UsageError("--jobs must be positive".to_owned()));
                }
            }
            Ok(cmd)
        }
        "vbr" => {
            let mut opts = Options::parse(&rest)?;
            let preset = opts
                .take_str("preset")?
                .unwrap_or_else(|| "matrix".to_owned());
            if !PRESETS.contains(&preset.as_str()) {
                return Err(UsageError(format!(
                    "unknown preset {preset:?}; expected one of {PRESETS:?}"
                )));
            }
            let cmd = Command::Vbr {
                preset,
                max_wait_secs: opts.take_f64("max-wait-secs")?.unwrap_or(60.0),
                seed: opts.take_u64("seed")?.unwrap_or(42),
            };
            opts.finish()?;
            Ok(cmd)
        }
        "server" => {
            let mut opts = Options::parse(&rest)?;
            let cmd = Command::ServerPolicies {
                videos: opts.take_usize("videos")?.unwrap_or(20),
                total_rate: opts.take_f64("total-rate")?.unwrap_or(500.0),
                zipf: opts.take_f64("zipf")?.unwrap_or(1.0),
                slots: opts.take_u64("slots")?.unwrap_or(1_200),
                seed: opts.take_u64("seed")?.unwrap_or(42),
            };
            opts.finish()?;
            Ok(cmd)
        }
        "schedule" => {
            let mut opts = Options::parse(&rest)?;
            let cmd = Command::Schedule {
                segments: opts.take_usize("segments")?.unwrap_or(6),
                arrivals: opts
                    .take_u64_list("arrivals")?
                    .unwrap_or_else(|| vec![1, 3]),
            };
            opts.finish()?;
            Ok(cmd)
        }
        "trace" => {
            let mut opts = Options::parse(&rest)?;
            let protocol = opts
                .take_str("protocol")?
                .unwrap_or_else(|| "dhb".to_owned());
            if !TRACE_PROTOCOLS.contains(&protocol.as_str()) {
                return Err(UsageError(format!(
                    "unknown trace protocol {protocol:?}; expected one of {TRACE_PROTOCOLS:?}"
                )));
            }
            let cmd = Command::Trace {
                protocol,
                rate: opts.take_f64("rate")?.unwrap_or(100.0),
                segments: opts.take_usize("segments")?.unwrap_or(99),
                duration_mins: opts.take_f64("duration-mins")?.unwrap_or(120.0),
                slots: opts.take_u64("slots")?.unwrap_or(2_000),
                seed: opts.take_u64("seed")?.unwrap_or(42),
                loss: opts.take_f64("loss")?.unwrap_or(0.0),
                slot_cap: opts.take_u64("slot-cap")?.map(|v| v as u32),
                outage: opts.take_outage("outage")?,
                fault_seed: opts.take_u64("fault-seed")?,
                events_out: opts.take_str("events-out")?,
                metrics_out: opts.take_str("metrics-out")?,
                progress: opts.take_u64("progress")?,
                events_cap: opts.take_usize("events-cap")?,
            };
            opts.finish()?;
            if let Command::Trace {
                rate,
                segments,
                loss,
                slot_cap,
                outage,
                events_cap,
                ..
            } = &cmd
            {
                if !(rate.is_finite() && *rate > 0.0) {
                    return Err(UsageError("--rate must be positive".to_owned()));
                }
                if *segments == 0 {
                    return Err(UsageError("--segments must be positive".to_owned()));
                }
                if !(0.0..1.0).contains(loss) {
                    return Err(UsageError("--loss must be in [0, 1)".to_owned()));
                }
                if slot_cap == &Some(0) {
                    return Err(UsageError("--slot-cap must be positive".to_owned()));
                }
                if let Some((start, end)) = outage {
                    if start >= end {
                        return Err(UsageError(
                            "--outage window must be non-empty (start < end)".to_owned(),
                        ));
                    }
                }
                if events_cap == &Some(0) {
                    return Err(UsageError("--events-cap must be positive".to_owned()));
                }
            }
            Ok(cmd)
        }
        "analyze" => {
            let mut opts = Options::parse(&rest)?;
            let preset = opts
                .take_str("preset")?
                .unwrap_or_else(|| "matrix".to_owned());
            let file = opts.take_str("file")?;
            if file.is_none() && !PRESETS.contains(&preset.as_str()) {
                return Err(UsageError(format!(
                    "unknown preset {preset:?}; expected one of {PRESETS:?}"
                )));
            }
            let cmd = Command::Analyze {
                preset,
                file,
                seed: opts.take_u64("seed")?.unwrap_or(42),
                export: opts.take_str("export")?,
            };
            opts.finish()?;
            Ok(cmd)
        }
        "serve" => {
            let mut opts = Options::parse(&rest)?;
            let cmd = Command::Serve {
                addr: opts
                    .take_str("addr")?
                    .unwrap_or_else(|| "127.0.0.1:7400".to_owned()),
                catalog: opts.take_str("catalog")?,
                videos: opts.take_u64("videos")?.unwrap_or(4) as u32,
                segments: opts.take_usize("segments")?.unwrap_or(120),
                duration_mins: opts.take_f64("duration-mins")?.unwrap_or(120.0),
                shards: opts.take_usize("shards")?.unwrap_or(2),
                dilation: opts.take_u64("dilation")?.unwrap_or(1) as u32,
                queue_cap: opts.take_usize("queue-cap")?.unwrap_or(64),
                replay_cap: opts.take_usize("replay-cap")?.unwrap_or(1_024),
                max_restarts: opts.take_u64("max-restarts")?.unwrap_or(3) as u32,
                run_secs: opts.take_f64("run-secs")?.unwrap_or(0.0),
            };
            opts.finish()?;
            if let Command::Serve {
                videos,
                segments,
                duration_mins,
                shards,
                dilation,
                queue_cap,
                replay_cap,
                run_secs,
                ..
            } = &cmd
            {
                if *videos == 0 {
                    return Err(UsageError("--videos must be positive".to_owned()));
                }
                if *segments == 0 {
                    return Err(UsageError("--segments must be positive".to_owned()));
                }
                if *duration_mins <= 0.0 {
                    return Err(UsageError("--duration-mins must be positive".to_owned()));
                }
                if *shards == 0 {
                    return Err(UsageError("--shards must be positive".to_owned()));
                }
                if *dilation == 0 {
                    return Err(UsageError("--dilation must be positive".to_owned()));
                }
                if *queue_cap == 0 {
                    return Err(UsageError("--queue-cap must be positive".to_owned()));
                }
                if *replay_cap == 0 {
                    return Err(UsageError("--replay-cap must be positive".to_owned()));
                }
                if !run_secs.is_finite() || *run_secs < 0.0 {
                    return Err(UsageError("--run-secs must be non-negative".to_owned()));
                }
            }
            Ok(cmd)
        }
        "vodtop" => {
            let mut opts = Options::parse(&rest)?;
            let cmd = Command::Vodtop {
                addr: opts
                    .take_str("addr")?
                    .ok_or_else(|| UsageError("vodtop requires --addr".to_owned()))?,
                intervals: opts.take_u64("intervals")?.unwrap_or(5) as u32,
                snapshot_out: opts.take_str("snapshot-out")?,
                spans: opts.take_u64("spans")?.unwrap_or(0) as u32,
            };
            opts.finish()?;
            if let Command::Vodtop { intervals, .. } = &cmd {
                if *intervals == 0 {
                    return Err(UsageError("--intervals must be positive".to_owned()));
                }
            }
            Ok(cmd)
        }
        other => Err(UsageError(format!("unknown subcommand {other:?}"))),
    }
}

/// `--key value` option bag.
#[derive(Debug)]
struct Options {
    pairs: Vec<(String, String)>,
}

impl Options {
    fn parse(args: &[&str]) -> Result<Options, UsageError> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| UsageError(format!("expected --option, got {:?}", args[i])))?;
            let value = args
                .get(i + 1)
                .ok_or_else(|| UsageError(format!("--{key} requires a value")))?;
            pairs.push((key.to_owned(), (*value).to_owned()));
            i += 2;
        }
        Ok(Options { pairs })
    }

    fn take_str(&mut self, key: &str) -> Result<Option<String>, UsageError> {
        match self.pairs.iter().position(|(k, _)| k == key) {
            Some(idx) => Ok(Some(self.pairs.remove(idx).1)),
            None => Ok(None),
        }
    }

    fn take_f64(&mut self, key: &str) -> Result<Option<f64>, UsageError> {
        self.take_str(key)?
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| UsageError(format!("--{key}: {v:?} is not a number")))
            })
            .transpose()
    }

    fn take_u64(&mut self, key: &str) -> Result<Option<u64>, UsageError> {
        self.take_str(key)?
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| UsageError(format!("--{key}: {v:?} is not an integer")))
            })
            .transpose()
    }

    fn take_usize(&mut self, key: &str) -> Result<Option<usize>, UsageError> {
        Ok(self.take_u64(key)?.map(|v| v as usize))
    }

    fn take_f64_list(&mut self, key: &str) -> Result<Option<Vec<f64>>, UsageError> {
        self.take_str(key)?
            .map(|v| {
                v.split(',')
                    .map(|p| {
                        p.trim()
                            .parse::<f64>()
                            .map_err(|_| UsageError(format!("--{key}: {p:?} is not a number")))
                    })
                    .collect()
            })
            .transpose()
    }

    /// `--key start:end` — a half-open window in seconds.
    fn take_outage(&mut self, key: &str) -> Result<Option<(f64, f64)>, UsageError> {
        self.take_str(key)?
            .map(|v| {
                let bad = || UsageError(format!("--{key}: expected start:end seconds, got {v:?}"));
                let (start, end) = v.split_once(':').ok_or_else(bad)?;
                Ok((
                    start.trim().parse::<f64>().map_err(|_| bad())?,
                    end.trim().parse::<f64>().map_err(|_| bad())?,
                ))
            })
            .transpose()
    }

    fn take_u64_list(&mut self, key: &str) -> Result<Option<Vec<u64>>, UsageError> {
        self.take_str(key)?
            .map(|v| {
                v.split(',')
                    .map(|p| {
                        p.trim()
                            .parse::<u64>()
                            .map_err(|_| UsageError(format!("--{key}: {p:?} is not an integer")))
                    })
                    .collect()
            })
            .transpose()
    }

    fn finish(self) -> Result<(), UsageError> {
        match self.pairs.first() {
            Some((k, _)) => Err(UsageError(format!("unknown option --{k}"))),
            None => Ok(()),
        }
    }
}

/// Executes a command and returns its stdout text.
///
/// # Errors
///
/// Returns a [`UsageError`] for semantically invalid parameters discovered
/// at run time.
pub fn run(command: &Command) -> Result<String, UsageError> {
    match command {
        Command::Help => Ok(usage()),
        Command::Sweep {
            protocol,
            rates,
            segments,
            duration_mins,
            slots,
            seed,
            loss,
            slot_cap,
            outage,
            fault_seed,
            jobs,
        } => {
            let mut plan = FaultPlan::none().with_loss_rate(*loss);
            if let Some(cap) = slot_cap {
                plan = plan.with_slot_cap(*cap);
            }
            if let Some((start, end)) = outage {
                plan = plan.with_outage(Seconds::new(*start), Seconds::new(*end));
            }
            if let Some(fs) = fault_seed {
                plan = plan.with_seed(*fs);
            }
            run_sweep(
                protocol,
                rates,
                *segments,
                *duration_mins,
                *slots,
                *seed,
                &plan,
                *jobs,
            )
        }
        Command::Vbr {
            preset,
            max_wait_secs,
            seed,
        } => run_vbr(preset, *max_wait_secs, *seed),
        Command::ServerPolicies {
            videos,
            total_rate,
            zipf,
            slots,
            seed,
        } => run_server(*videos, *total_rate, *zipf, *slots, *seed),
        Command::Schedule { segments, arrivals } => run_schedule(*segments, arrivals),
        Command::Serve {
            addr,
            catalog,
            videos,
            segments,
            duration_mins,
            shards,
            dilation,
            queue_cap,
            replay_cap,
            max_restarts,
            run_secs,
        } => run_serve(
            addr,
            catalog.as_deref(),
            *videos,
            *segments,
            *duration_mins,
            *shards,
            *dilation,
            *queue_cap,
            *replay_cap,
            *max_restarts,
            *run_secs,
        ),
        Command::Vodtop {
            addr,
            intervals,
            snapshot_out,
            spans,
        } => run_vodtop(addr, *intervals, snapshot_out.as_deref(), *spans),
        Command::Trace {
            protocol,
            rate,
            segments,
            duration_mins,
            slots,
            seed,
            loss,
            slot_cap,
            outage,
            fault_seed,
            events_out,
            metrics_out,
            progress,
            events_cap,
        } => {
            let mut plan = FaultPlan::none().with_loss_rate(*loss);
            if let Some(cap) = slot_cap {
                plan = plan.with_slot_cap(*cap);
            }
            if let Some((start, end)) = outage {
                plan = plan.with_outage(Seconds::new(*start), Seconds::new(*end));
            }
            if let Some(fs) = fault_seed {
                plan = plan.with_seed(*fs);
            }
            run_trace(&TraceConfig {
                protocol,
                rate: *rate,
                segments: *segments,
                duration_mins: *duration_mins,
                slots: *slots,
                seed: *seed,
                plan,
                events_out: events_out.as_deref(),
                metrics_out: metrics_out.as_deref(),
                progress: *progress,
                events_cap: *events_cap,
            })
        }
        Command::Analyze {
            preset,
            file,
            seed,
            export,
        } => run_analyze(preset, file.as_deref(), *seed, export.as_deref()),
    }
}

fn run_analyze(
    preset_key: &str,
    file: Option<&str>,
    seed: u64,
    export: Option<&str>,
) -> Result<String, UsageError> {
    use vod_trace::analysis;
    use vod_trace::io::{read_frame_sizes, write_frame_sizes};

    let (label, trace) = match file {
        Some(path) => {
            let f = std::fs::File::open(path)
                .map_err(|e| UsageError(format!("cannot open {path}: {e}")))?;
            let trace = read_frame_sizes(std::io::BufReader::new(f))
                .map_err(|e| UsageError(e.to_string()))?;
            (path.to_owned(), trace)
        }
        None => {
            let preset = preset_from_key(preset_key)?;
            (preset.to_string(), preset.trace(seed))
        }
    };

    let p = analysis::profile(&trace);
    let mut table = Table::new(vec!["statistic", "value"]);
    table.push_row(vec![
        "duration (s)".to_owned(),
        format!("{:.1}", trace.duration().as_secs_f64()),
    ]);
    table.push_row(vec!["frames".to_owned(), trace.n_frames().to_string()]);
    table.push_row(vec![
        "mean rate (KB/s)".to_owned(),
        format!("{:.1}", p.mean_kbps),
    ]);
    table.push_row(vec![
        "peak/mean @1 s".to_owned(),
        format!("{:.3}", p.peak_to_mean_1s),
    ]);
    table.push_row(vec![
        "peak/mean @60 s".to_owned(),
        format!("{:.3}", p.peak_to_mean_60s),
    ]);
    table.push_row(vec!["acf @1 s".to_owned(), format!("{:.3}", p.acf_1s)]);
    table.push_row(vec!["acf @60 s".to_owned(), format!("{:.3}", p.acf_60s)]);
    table.push_row(vec![
        "GOP-12 prominence".to_owned(),
        format!("{:.3}", p.gop_score),
    ]);

    let mut out = format!("{label}:\n{}", render_table(&table));
    if let Some(path) = export {
        let f = std::fs::File::create(path)
            .map_err(|e| UsageError(format!("cannot create {path}: {e}")))?;
        write_frame_sizes(&trace, std::io::BufWriter::new(f))
            .map_err(|e| UsageError(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!("\n[trace exported to {path}]\n"));
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn run_sweep(
    protocol: &str,
    rates: &[f64],
    segments: usize,
    duration_mins: f64,
    slots: u64,
    seed: u64,
    plan: &FaultPlan,
    jobs: usize,
) -> Result<String, UsageError> {
    let video = VideoSpec::new(Seconds::from_mins(duration_mins), segments)
        .map_err(|e| UsageError(e.to_string()))?;
    let sweep = RateSweep::new(video)
        .rates_per_hour(rates)
        .warmup_slots(slots / 10)
        .measured_slots(slots)
        .seed(seed)
        .fault_plan(plan.clone())
        .jobs(jobs);

    let series = match protocol {
        "dhb" => sweep.run_slotted(|| Dhb::fixed_rate(segments)),
        "ud" => sweep.run_slotted(|| UniversalDistribution::new(segments)),
        "dnpb" => sweep.run_slotted(|| DynamicNpb::new(segments)),
        "dsb" => sweep.run_slotted(|| DynamicSb::new(segments, None)),
        "tapping" => {
            sweep.run_continuous(|| StreamTapping::new(video.duration(), TappingPolicy::Extra))
        }
        "patching" => {
            let mid = rates[rates.len() / 2];
            sweep
                .run_continuous(move || Patching::new(video.duration(), ArrivalRate::per_hour(mid)))
        }
        "npb" if plan.is_zero() => {
            // Deterministic on a clean channel: no simulation needed.
            let streams = npb_streams_for(segments) as f64;
            let mut table = Table::new(vec!["req/h", "avg", "max"]);
            for &r in rates {
                table.push_row(vec![
                    format!("{r}"),
                    format!("{streams:.3}"),
                    format!("{streams:.3}"),
                ]);
            }
            return Ok(render_table(&table));
        }
        // Under faults NPB's fixed mapping must be driven through the engine
        // to expose what the channel actually delivered.
        "npb" => sweep.run_slotted(|| FixedBroadcast::new(npb_mapping_for(segments))),
        other => return Err(UsageError(format!("unknown protocol {other:?}"))),
    };

    let mut headers = vec!["req/h", "avg streams", "max streams"];
    if !plan.is_zero() {
        headers.push("delivery %");
        headers.push("stall (s)");
    }
    let mut table = Table::new(headers);
    for p in &series.points {
        let mut row = vec![
            format!("{}", p.rate_per_hour),
            format!("{:.3}", p.avg_streams),
            format!("{:.3}", p.max_streams),
        ];
        if !plan.is_zero() {
            row.push(format!("{:.2}", p.delivery_ratio * 100.0));
            row.push(format!("{:.1}", p.stall_secs));
        }
        table.push_row(row);
    }
    Ok(format!(
        "{} ({})\n{}",
        series.label,
        video,
        render_table(&table)
    ))
}

/// Parameters of one `vodsim trace` run.
struct TraceConfig<'a> {
    protocol: &'a str,
    rate: f64,
    segments: usize,
    duration_mins: f64,
    slots: u64,
    seed: u64,
    plan: FaultPlan,
    events_out: Option<&'a str>,
    metrics_out: Option<&'a str>,
    progress: Option<u64>,
    events_cap: Option<usize>,
}

fn run_trace(cfg: &TraceConfig<'_>) -> Result<String, UsageError> {
    let video = VideoSpec::new(Seconds::from_mins(cfg.duration_mins), cfg.segments)
        .map_err(|e| UsageError(e.to_string()))?;
    let journal = match cfg.events_cap {
        Some(cap) => Journal::with_capacity(cap),
        None => Journal::enabled(),
    };
    let mut obs = Observer::enabled(journal.clone());
    if let Some(every) = cfg.progress {
        obs = obs.progress_every(every);
    }
    let run = SlottedRun::new(video)
        .warmup_slots(cfg.slots / 10)
        .measured_slots(cfg.slots)
        .seed(cfg.seed)
        .fault_plan(cfg.plan.clone());
    let arrivals = PoissonProcess::new(ArrivalRate::per_hour(cfg.rate));

    let report = match cfg.protocol {
        "dhb" => {
            let mut dhb = Dhb::fixed_rate(cfg.segments).with_journal(journal.clone());
            let report = run.run_observed(&mut dhb, arrivals, &mut obs);
            let stats = dhb.stats();
            let r = &mut obs.registry;
            r.inc("dhb.requests", stats.requests);
            r.inc("dhb.new_instances", stats.new_instances);
            r.inc("dhb.shared_instances", stats.shared_instances);
            r.inc("dhb.duplicate_instances", stats.duplicate_instances);
            r.inc("dhb.cap_overflows", stats.cap_overflows);
            r.inc("dhb.recovery.drops_seen", stats.recovery.drops_seen);
            r.inc("dhb.recovery.reschedules", stats.recovery.reschedules);
            r.inc(
                "dhb.recovery.deferred_starts",
                stats.recovery.deferred_starts,
            );
            r.inc("dhb.recovery.stall_slots", stats.recovery.stall_slots);
            r.inc("dhb.recovery.unrecoverable", stats.recovery.unrecoverable);
            r.set_gauge("dhb.sharing_ratio", stats.sharing_ratio());
            report
        }
        "ud" => run.run_observed(
            &mut UniversalDistribution::new(cfg.segments),
            arrivals,
            &mut obs,
        ),
        "dnpb" => run.run_observed(&mut DynamicNpb::new(cfg.segments), arrivals, &mut obs),
        "dsb" => run.run_observed(&mut DynamicSb::new(cfg.segments, None), arrivals, &mut obs),
        "npb" => run.run_observed(
            &mut FixedBroadcast::new(npb_mapping_for(cfg.segments)),
            arrivals,
            &mut obs,
        ),
        other => return Err(UsageError(format!("unknown trace protocol {other:?}"))),
    };
    obs.finish_timers();

    let mut out = format!(
        "{} trace ({video}, {} req/h, {} measured slots)\n\
         events: {} emitted ({} evicted from the {}-event ring)\n\
         avg {:.3} streams, max {:.3}, delivery {:.2}%, stalled {:.1} s\n",
        cfg.protocol,
        cfg.rate,
        cfg.slots,
        journal.total_emitted(),
        journal.evicted(),
        cfg.events_cap.unwrap_or(Journal::DEFAULT_CAPACITY),
        report.avg_bandwidth.get(),
        report.max_bandwidth.get(),
        report.delivery_ratio() * 100.0,
        report.stall_secs,
    );
    let recovery_kinds = [
        EventKind::InstanceDropped,
        EventKind::Rescheduled,
        EventKind::PlaybackDeferred,
    ];
    if recovery_kinds.iter().any(|&k| journal.count_of(k) > 0) {
        out.push_str(&format!(
            "faults: {} dropped, {} rescheduled, {} playback-deferred\n",
            journal.count_of(EventKind::InstanceDropped),
            journal.count_of(EventKind::Rescheduled),
            journal.count_of(EventKind::PlaybackDeferred),
        ));
    }

    if let Some(path) = cfg.events_out {
        let records = journal.snapshot();
        let text = jsonl::to_jsonl(&records);
        // Validate the writer output against the parser before anything
        // downstream consumes it: the round trip must be lossless.
        let parsed = jsonl::parse_jsonl(&text)
            .map_err(|e| UsageError(format!("internal JSONL round-trip failure: {e}")))?;
        if parsed != records {
            return Err(UsageError(
                "internal JSONL round-trip failure: re-parse differs".to_owned(),
            ));
        }
        std::fs::write(path, &text).map_err(|e| UsageError(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!(
            "[{} events written to {path}, schema validated]\n",
            records.len()
        ));
    }
    if let Some(path) = cfg.metrics_out {
        std::fs::write(path, obs.registry.to_json_pretty())
            .map_err(|e| UsageError(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!("[metrics snapshot written to {path}]\n"));
    }
    Ok(out)
}

fn preset_from_key(key: &str) -> Result<FilmPreset, UsageError> {
    match key {
        "matrix" => Ok(FilmPreset::MatrixLike),
        "action" => Ok(FilmPreset::ActionBlockbuster),
        "drama" => Ok(FilmPreset::DialogueDrama),
        "toon" => Ok(FilmPreset::AnimatedFeature),
        other => Err(UsageError(format!("unknown preset {other:?}"))),
    }
}

fn run_vbr(preset_key: &str, max_wait_secs: f64, seed: u64) -> Result<String, UsageError> {
    if max_wait_secs <= 0.0 {
        return Err(UsageError("--max-wait-secs must be positive".to_owned()));
    }
    let preset = preset_from_key(preset_key)?;
    let trace = preset.trace(seed);
    let plans = BroadcastPlan::all_variants(&trace, Seconds::new(max_wait_secs));

    let mut out = format!(
        "{preset}: {:.0} s, mean {}, 1-s peak {}\n\n",
        trace.duration().as_secs_f64(),
        trace.mean_rate(),
        trace.peak_rate_over_one_second()
    );
    let mut table = Table::new(vec!["variant", "segments", "stream rate", "relaxed T[i]"]);
    for plan in &plans {
        table.push_row(vec![
            plan.variant.to_string(),
            plan.n_segments.to_string(),
            format!("{}", plan.stream_rate),
            format!("{}", relaxed_segments(&plan.periods).len()),
        ]);
    }
    out.push_str(&render_table(&table));
    Ok(out)
}

fn run_server(
    videos: usize,
    total_rate: f64,
    zipf: f64,
    slots: u64,
    seed: u64,
) -> Result<String, UsageError> {
    if videos == 0 {
        return Err(UsageError("--videos must be positive".to_owned()));
    }
    if !(zipf.is_finite() && zipf >= 0.0) {
        return Err(UsageError("--zipf must be non-negative".to_owned()));
    }
    let catalog = Catalog::zipf(
        videos,
        ArrivalRate::per_hour(total_rate),
        zipf,
        VideoSpec::paper_two_hour(),
    );
    let server = Server::new(catalog)
        .warmup_slots(slots / 10)
        .measured_slots(slots)
        .seed(seed);
    let mut table = Table::new(vec!["policy", "avg streams", "joint peak"]);
    for policy in Policy::roster(ArrivalRate::per_hour(25.0)) {
        let report = server.simulate(&policy);
        let joint = server.simulate_joint(&policy).map_or_else(
            || "n/a".to_owned(),
            |j| format!("{:.1}", j.joint_peak.get()),
        );
        table.push_row(vec![
            policy.to_string(),
            format!("{:.2}", report.total_avg.get()),
            joint,
        ]);
    }
    Ok(render_table(&table))
}

fn run_schedule(segments: usize, arrivals: &[u64]) -> Result<String, UsageError> {
    if segments == 0 {
        return Err(UsageError("--segments must be positive".to_owned()));
    }
    let mut sorted = arrivals.to_vec();
    sorted.sort_unstable();
    let mut scheduler = DhbScheduler::fixed_rate(segments);
    let mut out = String::new();
    for &a in &sorted {
        while scheduler.next_slot().index() < a {
            let _ = scheduler.pop_slot();
        }
        let schedule = scheduler.schedule_request(Slot::new(a));
        let shared = schedule.iter().filter(|e| !e.newly_scheduled).count();
        out.push_str(&format!(
            "request in slot {a}: {shared} of {segments} segments shared\n"
        ));
    }
    let last = sorted.last().copied().unwrap_or(0);
    out.push('\n');
    out.push_str(
        &scheduler.render_schedule(scheduler.next_slot(), Slot::new(last + segments as u64 + 1)),
    );
    Ok(out)
}

/// One banner line per catalog entry, from declared geometry alone (no
/// scheduler is built here — DHB-d entries synthesise a VBR trace at
/// service start, and the banner must stay cheap).
fn describe_catalog(catalog: &vod_svc::ServeCatalog) -> String {
    use vod_svc::SchedulerKind;
    let mut out = String::new();
    for (id, entry) in catalog.entries().iter().enumerate() {
        let kind = match &entry.kind {
            SchedulerKind::Dhb { segments } => format!("dhb, {segments} segments"),
            SchedulerKind::Npb { segments } => format!("npb, {segments} segments"),
            SchedulerKind::Periods { periods } => {
                format!("periods, {} segments", periods.len())
            }
            SchedulerKind::DhbD {
                preset,
                seed,
                max_wait_secs,
            } => {
                // The plan fixes its own slot duration; the entry's
                // segment_secs is unused.
                format!("dhb-d, preset {preset}, seed {seed}, {max_wait_secs:.0}s slots")
            }
        };
        let slots = match &entry.kind {
            SchedulerKind::DhbD { .. } => String::new(),
            _ => format!(", {:.0}s slots", entry.segment_secs),
        };
        out.push_str(&format!("\n  video {id}: {kind}{slots}"));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn run_serve(
    addr: &str,
    catalog_path: Option<&str>,
    videos: u32,
    segments: usize,
    duration_mins: f64,
    shards: usize,
    dilation: u32,
    queue_cap: usize,
    replay_cap: usize,
    max_restarts: u32,
    run_secs: f64,
) -> Result<String, UsageError> {
    let catalog = match catalog_path {
        Some(path) => vod_svc::ServeCatalog::load(path)
            .map_err(|e| UsageError(format!("cannot load catalog {path}: {e}")))?,
        None => {
            let video = VideoSpec::new(Seconds::from_mins(duration_mins), segments)
                .map_err(|e| UsageError(format!("invalid video spec: {e}")))?;
            vod_svc::ServeCatalog::uniform(videos, video)
        }
    };
    let config = vod_svc::SvcConfig {
        catalog,
        shards,
        dilation,
        queue_cap,
        replay_cap,
        max_restarts,
        ..vod_svc::SvcConfig::default()
    };
    let service = vod_svc::Service::start(addr, &config)
        .map_err(|e| UsageError(format!("cannot bind {addr}: {e}")))?;
    let banner = format!(
        "vod-svc listening on {} ({} videos, {} shard(s), dilation {}x, queue cap {}){}",
        service.local_addr(),
        config.catalog.len(),
        shards,
        dilation,
        queue_cap,
        describe_catalog(&config.catalog),
    );
    if run_secs <= 0.0 {
        // Serve until the process is killed; print the banner now since
        // run() only returns output on exit.
        println!("{banner}");
        loop {
            std::thread::park();
        }
    }
    std::thread::sleep(std::time::Duration::from_secs_f64(run_secs));
    let summary = service.shutdown();
    Ok(format!(
        "{banner}\nserved {:.1}s: {} conns, {} requests, {} grants, {} rejected\n{}",
        run_secs,
        summary.conns,
        summary.requests,
        summary.grants,
        summary.rejected,
        summary.stats_json,
    ))
}

/// Renders nanoseconds with a unit the eye can scan in a table column.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// How long `vodtop` waits between two snapshots.
const VODTOP_INTERVAL: std::time::Duration = std::time::Duration::from_secs(1);

/// Per-second rates between two snapshots of one server.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SnapshotRates {
    requests: f64,
    grants: f64,
    bytes: f64,
}

/// Differences the cumulative `svc.requests`, `svc.grants` and
/// `svc.bytes_delivered` counters of two snapshots over their
/// `svc.snapshot.mono_ns` stamps. `None` when no time elapsed, or when the
/// stamp or a counter went backwards: the server restarted in between, and
/// its counters started over.
fn snapshot_rates(before: &str, after: &str) -> Option<SnapshotRates> {
    let delta = |name: &str| {
        let a = vod_svc::find_counter(before, name)?;
        vod_svc::find_counter(after, name)?.checked_sub(a)
    };
    let elapsed_ns = delta("svc.snapshot.mono_ns").filter(|&ns| ns > 0)?;
    let per_sec = |name: &str| Some(delta(name)? as f64 * 1e9 / elapsed_ns as f64);
    Some(SnapshotRates {
        requests: per_sec("svc.requests")?,
        grants: per_sec("svc.grants")?,
        bytes: per_sec("svc.bytes_delivered")?,
    })
}

/// The per-shard per-stage latency table `vodtop` renders from one
/// snapshot: `p50/p99` per pipeline stage plus end-to-end and the live
/// queue/lag/restart-budget gauges, headed by the rates over the last
/// interval.
fn render_vodtop(json: &str, shards: u32, rates: Option<SnapshotRates>) -> String {
    let mut header = vec!["shard".to_owned(), "spans".to_owned()];
    for stage in vod_svc::SPAN_STAGES {
        header.push(format!("{stage} p50/p99"));
    }
    header.push("total p50/p99".to_owned());
    header.push("queue".to_owned());
    header.push("lag".to_owned());
    header.push("budget".to_owned());
    header.push("ring pub/fan".to_owned());
    header.push("evic/gaps".to_owned());
    let mut table = Table::new(header);
    for shard in 0..shards {
        let mut row = vec![shard.to_string()];
        let total = vod_svc::find_histogram(json, &format!("svc.span.shard{shard}.total_ns"));
        row.push(total.map_or_else(|| "0".to_owned(), |h| h.count.to_string()));
        for stage in vod_svc::SPAN_STAGES {
            let name = format!("svc.span.shard{shard}.{stage}_ns");
            row.push(vod_svc::find_histogram(json, &name).map_or_else(
                || "-".to_owned(),
                |h| format!("{}/{}", fmt_ns(h.p50), fmt_ns(h.p99)),
            ));
        }
        row.push(total.map_or_else(
            || "-".to_owned(),
            |h| format!("{}/{}", fmt_ns(h.p50), fmt_ns(h.p99)),
        ));
        for gauge in ["queue_depth", "clock_lag_slots", "restart_budget_left"] {
            let name = format!("svc.gauge.shard{shard}.{gauge}");
            row.push(
                vod_svc::find_gauge(json, &name)
                    .map_or_else(|| "-".to_owned(), |v| format!("{v:.0}")),
            );
        }
        let ring = |what: &str| {
            vod_svc::find_counter(json, &format!("svc.ring.shard{shard}.{what}")).unwrap_or(0)
        };
        row.push(format!("{}/{}", ring("published"), ring("fanout")));
        row.push(format!("{}/{}", ring("evictions"), ring("gaps")));
        table.push_row(row);
    }
    let requests = vod_svc::find_counter(json, "svc.requests").unwrap_or(0);
    let grants = vod_svc::find_counter(json, "svc.grants").unwrap_or(0);
    let bytes = vod_svc::find_counter(json, "svc.bytes_delivered").unwrap_or(0);
    let published = vod_svc::find_counter(json, "svc.ring.published").unwrap_or(0);
    let fanout = vod_svc::find_counter(json, "svc.ring.fanout").unwrap_or(0);
    let (rps, gps, bps) = rates.map_or_else(
        || ("-".to_owned(), "-".to_owned(), "-".to_owned()),
        |r| {
            (
                format!("{:.1}", r.requests),
                format!("{:.1}", r.grants),
                format!("{:.0}", r.bytes),
            )
        },
    );
    format!(
        "{requests} requests, {grants} grants; last interval {rps} req/s, {gps} grants/s\n\
         data plane: {bytes} bytes delivered ({bps} B/s last interval), \
         {published} published, {fanout} fanned out\n{}",
        render_table(&table)
    )
}

fn run_vodtop(
    addr: &str,
    intervals: u32,
    snapshot_out: Option<&str>,
    spans: u32,
) -> Result<String, UsageError> {
    use std::io::Write as _;

    let scrape_err = |e: std::io::Error| UsageError(format!("scrape of {addr} failed: {e}"));
    let mut client = vod_svc::ScrapeClient::connect(addr)
        .map_err(|e| UsageError(format!("cannot reach server at {addr}: {e}")))?;
    let mut sink = snapshot_out
        .map(|path| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| UsageError(format!("cannot open {path}: {e}")))
        })
        .transpose()?;
    // Counters are cumulative: each refresh's rates are the difference
    // from the previous snapshot, so the first one is only a baseline.
    let mut last = client.stats().map_err(scrape_err)?;
    let mut rates = None;
    for _ in 0..intervals {
        std::thread::sleep(VODTOP_INTERVAL);
        let next = client.stats().map_err(scrape_err)?;
        rates = snapshot_rates(&last, &next);
        last = next;
        if let Some(file) = &mut sink {
            // The pretty snapshot only breaks lines at structural
            // whitespace, so stripping it yields one valid JSON line.
            let line: String = last.lines().map(str::trim).collect();
            writeln!(file, "{line}")
                .map_err(|e| UsageError(format!("cannot write snapshot: {e}")))?;
        }
    }
    // Every shard exports a queue-depth gauge; count them.
    let shards = (0..)
        .take_while(|s| {
            vod_svc::find_gauge(&last, &format!("svc.gauge.shard{s}.queue_depth")).is_some()
        })
        .count() as u32;
    let mut out = render_vodtop(&last, shards, rates);
    if spans > 0 {
        let jsonl = client.spans(spans).map_err(scrape_err)?;
        out.push_str("\nrecent spans:\n");
        out.push_str(&jsonl);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_sweep_with_defaults() {
        let cmd = parse(&args("sweep --protocol dhb --rates 1,10,100")).unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                protocol: "dhb".into(),
                rates: vec![1.0, 10.0, 100.0],
                segments: 99,
                duration_mins: 120.0,
                slots: 2_000,
                seed: 42,
                loss: 0.0,
                slot_cap: None,
                outage: None,
                fault_seed: None,
                jobs: vod_sim::default_jobs(),
            }
        );
    }

    #[test]
    fn parses_serve_with_defaults() {
        let cmd = parse(&args("serve")).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "127.0.0.1:7400".into(),
                catalog: None,
                videos: 4,
                segments: 120,
                duration_mins: 120.0,
                shards: 2,
                dilation: 1,
                queue_cap: 64,
                replay_cap: 1_024,
                max_restarts: 3,
                run_secs: 0.0,
            }
        );
        match parse(&args("serve --catalog mix.toml")).unwrap() {
            Command::Serve { catalog, .. } => assert_eq!(catalog.as_deref(), Some("mix.toml")),
            other => panic!("unexpected: {other:?}"),
        }
        match parse(&args("serve --replay-cap 16 --max-restarts 0")).unwrap() {
            Command::Serve {
                replay_cap,
                max_restarts,
                ..
            } => {
                assert_eq!(replay_cap, 16);
                assert_eq!(max_restarts, 0);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(parse(&args("serve --shards 0")).is_err());
        assert!(parse(&args("serve --dilation 0")).is_err());
        assert!(parse(&args("serve --replay-cap 0")).is_err());
        assert!(parse(&args("serve --run-secs -1")).is_err());
    }

    #[test]
    fn parses_vodtop() {
        let cmd = parse(&args("vodtop --addr 127.0.0.1:7401")).unwrap();
        assert_eq!(
            cmd,
            Command::Vodtop {
                addr: "127.0.0.1:7401".into(),
                intervals: 5,
                snapshot_out: None,
                spans: 0,
            }
        );
        match parse(&args(
            "vodtop --addr h:1 --intervals 2 --snapshot-out t.jsonl --spans 8",
        ))
        .unwrap()
        {
            Command::Vodtop {
                intervals,
                snapshot_out,
                spans,
                ..
            } => {
                assert_eq!(intervals, 2);
                assert_eq!(snapshot_out.as_deref(), Some("t.jsonl"));
                assert_eq!(spans, 8);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(parse(&args("vodtop")).is_err(), "--addr is required");
        assert!(parse(&args("vodtop --addr h:1 --intervals 0")).is_err());
    }

    #[test]
    fn vodtop_against_a_dead_port_is_a_usage_error() {
        // Bind-then-drop gives an address nothing is listening on.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = run_vodtop(&addr, 1, None, 0).unwrap_err();
        assert!(err.0.contains("cannot reach server"), "{}", err.0);
    }

    #[test]
    fn vodtop_scrapes_a_live_server() {
        let video = VideoSpec::new(Seconds::from_mins(1.0), 6).unwrap();
        let config = vod_svc::SvcConfig {
            catalog: vod_svc::ServeCatalog::uniform(2, video),
            shards: 2,
            dilation: 1_000,
            ..vod_svc::SvcConfig::default()
        };
        let service = vod_svc::Service::start("127.0.0.1:0", &config).unwrap();
        let addr = service.local_addr().to_string();
        let report = vod_svc::run_load(
            service.local_addr(),
            &vod_svc::LoadConfig {
                conns: 2,
                requests_per_conn: 8,
                videos: 2,
                ..vod_svc::LoadConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.grants, 16);

        let out_path = std::env::temp_dir().join(format!(
            "vodtop-cli-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&out_path);
        let rendered =
            run_vodtop(&addr, 2, Some(out_path.to_str().unwrap()), 4).expect("vodtop scrape");
        assert!(rendered.contains("decode p50/p99"), "{rendered}");
        assert!(rendered.contains("total p50/p99"), "{rendered}");
        assert!(rendered.contains("recent spans:"), "{rendered}");
        // One table row per shard, counted from the snapshot's gauges.
        let row_keys: Vec<&str> = rendered
            .lines()
            .filter_map(|line| line.split_whitespace().next())
            .collect();
        for (shard, present) in [("0", true), ("1", true), ("2", false)] {
            assert_eq!(row_keys.contains(&shard), present, "{rendered}");
        }
        let jsonl = std::fs::read_to_string(&out_path).unwrap();
        assert_eq!(jsonl.lines().count(), 2, "one JSON line per interval");
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("svc.span.shard0.total_ns"), "{line}");
        }
        let _ = std::fs::remove_file(&out_path);
        let _ = service.shutdown();
    }

    /// A snapshot in the `StatsReply` pretty JSON layout.
    fn snapshot(mono_ns: u64, requests: u64, grants: u64, bytes: u64) -> String {
        let mut r = vod_obs::Registry::new();
        r.inc("svc.snapshot.mono_ns", mono_ns);
        r.inc("svc.requests", requests);
        r.inc("svc.grants", grants);
        r.inc("svc.bytes_delivered", bytes);
        r.to_json_pretty()
    }

    #[test]
    fn snapshot_rates_difference_counters_over_elapsed_time() {
        let before = snapshot(1_000_000_000, 100, 90, 4_096);
        let after = snapshot(3_000_000_000, 700, 490, 1_052_672);
        assert_eq!(
            snapshot_rates(&before, &after),
            Some(SnapshotRates {
                requests: 300.0,
                grants: 200.0,
                bytes: 524_288.0,
            })
        );
    }

    #[test]
    fn snapshot_rates_need_elapsed_time() {
        let a = snapshot(5_000, 10, 10, 0);
        let b = snapshot(5_000, 20, 20, 0);
        assert_eq!(snapshot_rates(&a, &b), None);
    }

    #[test]
    fn snapshot_rates_refuse_a_restarted_server() {
        // The second snapshot comes from a fresh server: its stamp (and
        // here its counters) started over, so no rate, never a negative
        // one.
        let old = snapshot(9_000_000_000, 5_000, 5_000, 1 << 20);
        let fresh = snapshot(2_000_000_000, 40, 40, 0);
        assert_eq!(snapshot_rates(&old, &fresh), None);
        // A stamp that advanced past counters that went backwards is a
        // restart too.
        let later = snapshot(12_000_000_000, 40, 40, 0);
        assert_eq!(snapshot_rates(&old, &later), None);
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
    }

    #[test]
    fn serve_runs_and_reports_a_summary() {
        // Ephemeral port, high dilation, short bounded run: `run` must come
        // back with the drain summary.
        let cmd = parse(&args(
            "serve --addr 127.0.0.1:0 --segments 6 --duration-mins 1 \
             --dilation 1000 --run-secs 0.05",
        ))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("vod-svc listening on"), "{out}");
        assert!(out.contains("0 grants"), "{out}");
        assert!(out.contains("svc.requests"), "{out}");
    }

    #[test]
    fn serve_hosts_a_heterogeneous_catalog_file() {
        let path = std::env::temp_dir().join("vodsim-cli-catalog-test.toml");
        std::fs::write(
            &path,
            "[[video]]\nsegment-secs = 10.0\nprotocol = \"dhb\"\nsegments = 6\n\n\
             [[video]]\nsegment-secs = 10.0\nprotocol = \"npb\"\nsegments = 8\n\n\
             [[video]]\nsegment-secs = 5.0\nprotocol = \"periods\"\nperiods = [1, 2, 2, 4]\n",
        )
        .unwrap();
        let cmd = parse(&args(&format!(
            "serve --addr 127.0.0.1:0 --catalog {} --dilation 1000 --run-secs 0.05",
            path.display()
        )))
        .unwrap();
        let out = run(&cmd).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("(3 videos"), "{out}");
        assert!(out.contains("video 0: dhb, 6 segments"), "{out}");
        assert!(out.contains("video 1: npb, 8 segments"), "{out}");
        assert!(out.contains("video 2: periods, 4 segments"), "{out}");

        // A missing catalog file is a usage error, not a panic.
        assert!(run(&parse(&args("serve --catalog /nonexistent/x.toml")).unwrap()).is_err());
    }

    #[test]
    fn parses_jobs_flag() {
        let cmd = parse(&args("sweep --protocol dhb --rates 1,10 --jobs 4")).unwrap();
        match cmd {
            Command::Sweep { jobs, .. } => assert_eq!(jobs, 4),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(parse(&args("sweep --protocol dhb --rates 1 --jobs 0")).is_err());
    }

    #[test]
    fn parses_fault_flags() {
        let cmd = parse(&args(
            "sweep --protocol dhb --rates 10 --loss 0.05 --slot-cap 8 --outage 600:900 --fault-seed 7",
        ))
        .unwrap();
        match cmd {
            Command::Sweep {
                loss,
                slot_cap,
                outage,
                fault_seed,
                ..
            } => {
                assert_eq!(loss, 0.05);
                assert_eq!(slot_cap, Some(8));
                assert_eq!(outage, Some((600.0, 900.0)));
                assert_eq!(fault_seed, Some(7));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_fault_flags() {
        assert!(parse(&args("sweep --protocol dhb --rates 1 --loss 1.5")).is_err());
        assert!(parse(&args("sweep --protocol dhb --rates 1 --slot-cap 0")).is_err());
        assert!(parse(&args("sweep --protocol dhb --rates 1 --outage 900:600")).is_err());
        assert!(parse(&args("sweep --protocol dhb --rates 1 --outage nope")).is_err());
    }

    #[test]
    fn parses_full_option_set() {
        let cmd = parse(&args(
            "sweep --protocol tapping --rates 5 --segments 50 --duration-mins 90 --slots 100 --seed 7",
        ))
        .unwrap();
        match cmd {
            Command::Sweep {
                protocol,
                segments,
                duration_mins,
                slots,
                seed,
                ..
            } => {
                assert_eq!(protocol, "tapping");
                assert_eq!(segments, 50);
                assert_eq!(duration_mins, 90.0);
                assert_eq!(slots, 100);
                assert_eq!(seed, 7);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&args("sweep --rates 1")).is_err()); // no protocol
        assert!(parse(&args("sweep --protocol dhb")).is_err()); // no rates
        assert!(parse(&args("sweep --protocol nope --rates 1")).is_err());
        assert!(parse(&args("sweep --protocol dhb --rates abc")).is_err());
        assert!(parse(&args("sweep --protocol dhb --rates 1 --bogus 2")).is_err());
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("vbr --preset nope")).is_err());
        let err = parse(&args("sweep --protocol")).unwrap_err();
        assert!(err.to_string().contains("requires a value"));
    }

    #[test]
    fn help_paths() {
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        let text = run(&Command::Help).unwrap();
        assert!(text.contains("vodsim sweep"));
    }

    #[test]
    fn schedule_command_renders_figures_4_and_5() {
        let cmd = parse(&args("schedule --segments 6 --arrivals 1,3")).unwrap();
        let out = run(&cmd).unwrap();
        assert!(
            out.contains("request in slot 1: 0 of 6 segments shared"),
            "{out}"
        );
        assert!(
            out.contains("request in slot 3: 4 of 6 segments shared"),
            "{out}"
        );
        assert!(out.contains("stream 1:"), "{out}");
    }

    #[test]
    fn sweep_command_produces_a_table() {
        let cmd = parse(&args(
            "sweep --protocol dhb --rates 10 --segments 20 --duration-mins 40 --slots 150",
        ))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("req/h"), "{out}");
        assert!(out.contains("10"), "{out}");
    }

    #[test]
    fn npb_sweep_is_flat_and_instant() {
        let cmd = parse(&args("sweep --protocol npb --rates 1,1000")).unwrap();
        let out = run(&cmd).unwrap();
        let sixes = out.matches("6.000").count();
        assert!(sixes >= 4, "{out}");
    }

    #[test]
    fn faulty_sweep_adds_delivery_columns() {
        let cmd = parse(&args(
            "sweep --protocol dhb --rates 50 --segments 12 --duration-mins 24 --slots 200 --loss 0.1",
        ))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("delivery %"), "{out}");
        assert!(out.contains("stall (s)"), "{out}");
    }

    #[test]
    fn npb_sweep_is_simulated_under_faults() {
        let cmd = parse(&args(
            "sweep --protocol npb --rates 50 --segments 6 --duration-mins 12 --slots 200 --loss 0.2",
        ))
        .unwrap();
        let out = run(&cmd).unwrap();
        // Simulated through the engine: labelled series plus fault columns.
        assert!(out.contains("delivery %"), "{out}");
        assert!(out.contains("avg streams"), "{out}");
    }

    #[test]
    fn vbr_command_reports_plans() {
        let cmd = parse(&args("vbr --preset drama --seed 3")).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("DHB-a"), "{out}");
        assert!(out.contains("DHB-d"), "{out}");
        assert!(out.contains("dialogue drama"), "{out}");
    }

    #[test]
    fn server_command_lists_policies() {
        let cmd = parse(&args("server --videos 3 --total-rate 60 --slots 120")).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("DHB everywhere"), "{out}");
        assert!(out.contains("joint peak"), "{out}");
    }

    #[test]
    fn parses_trace_with_defaults() {
        let cmd = parse(&args("trace")).unwrap();
        match cmd {
            Command::Trace {
                protocol,
                rate,
                segments,
                slots,
                events_out,
                progress,
                ..
            } => {
                assert_eq!(protocol, "dhb");
                assert_eq!(rate, 100.0);
                assert_eq!(segments, 99);
                assert_eq!(slots, 2_000);
                assert_eq!(events_out, None);
                assert_eq!(progress, None);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn trace_rejects_bad_inputs() {
        assert!(parse(&args("trace --protocol tapping")).is_err());
        assert!(parse(&args("trace --rate 0")).is_err());
        assert!(parse(&args("trace --loss 1.0")).is_err());
        assert!(parse(&args("trace --events-cap 0")).is_err());
        assert!(parse(&args("trace --bogus 1")).is_err());
    }

    #[test]
    fn trace_command_writes_validated_artifacts() {
        let dir = std::env::temp_dir();
        let events = dir.join("vodsim-trace-test.jsonl");
        let metrics = dir.join("vodsim-trace-test-metrics.json");
        let cmd = parse(&args(&format!(
            "trace --protocol dhb --rate 100 --segments 12 --duration-mins 24 \
             --slots 200 --loss 0.05 --events-out {} --metrics-out {}",
            events.display(),
            metrics.display()
        )))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("schema validated"), "{out}");
        assert!(out.contains("metrics snapshot written"), "{out}");
        // The JSONL on disk re-parses and agrees with the summary line.
        let text = std::fs::read_to_string(&events).unwrap();
        let records = jsonl::parse_jsonl(&text).unwrap();
        assert!(!records.is_empty());
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("\"dhb.recovery.reschedules\""), "{json}");
        assert!(json.contains("\"timer.schedule_ns\""), "{json}");
        let _ = std::fs::remove_file(&events);
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn trace_runs_every_slotted_protocol() {
        for protocol in TRACE_PROTOCOLS {
            let cmd = parse(&args(&format!(
                "trace --protocol {protocol} --rate 50 --segments 6 \
                 --duration-mins 12 --slots 60"
            )))
            .unwrap();
            let out = run(&cmd).unwrap();
            assert!(out.contains("events:"), "{protocol}: {out}");
        }
    }

    #[test]
    fn analyze_command_profiles_and_round_trips() {
        let tmp = std::env::temp_dir().join("vodsim-analyze-test.txt");
        let path = tmp.to_str().unwrap().to_owned();
        // Analyze a short preset and export it…
        let cmd = parse(&args(&format!(
            "analyze --preset drama --seed 2 --export {path}"
        )))
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("mean rate"), "{out}");
        assert!(out.contains("GOP-12"), "{out}");
        assert!(out.contains("exported"), "{out}");
        // …then re-analyze the exported file.
        let cmd = parse(&args(&format!("analyze --file {path}"))).unwrap();
        let out2 = run(&cmd).unwrap();
        assert!(out2.contains("mean rate"), "{out2}");
        let _ = std::fs::remove_file(&tmp);
    }

    #[test]
    fn analyze_rejects_bad_inputs() {
        assert!(parse(&args("analyze --preset nope")).is_err());
        let cmd = parse(&args("analyze --file /definitely/not/here.txt")).unwrap();
        assert!(run(&cmd).is_err());
    }
}
