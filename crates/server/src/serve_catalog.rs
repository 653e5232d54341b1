//! Heterogeneous serving catalogs: per-video segment counts, protocols and
//! period vectors, loadable from an untrusted TOML file.
//!
//! The offline [`Catalog`](crate::Catalog) ranks videos by popularity for
//! policy studies; this module is its live-service counterpart. A
//! [`ServeCatalog`] describes what `vodsim serve` hosts: each entry picks a
//! scheduling scheme — fixed-rate DHB, the dynamic-NPB grant adapter, an
//! explicit `T[1..=n]` period vector, or the full DHB-d VBR pipeline — and
//! [`ServeEntry::build`] turns it into a `Box<dyn SlotScheduler>` plus the
//! [`VideoSpec`] that drives that video's slot clock. Validation happens at
//! build time, not parse time, on purpose: a catalog file is untrusted
//! input, and the service must keep hosting the good entries while
//! answering requests for a bad one with a typed rejection instead of
//! dying.
//!
//! The file format is a small TOML subset — `[[video]]` tables with
//! scalar, string and integer-array values:
//!
//! ```toml
//! [[video]]                 # video id 0
//! protocol = "dhb"          # fixed-rate DHB, T[j] = j
//! segments = 6
//! segment-secs = 10.0
//!
//! [[video]]                 # video id 1
//! protocol = "npb"          # dynamic-NPB grants
//! segments = 9
//! segment-secs = 10.0
//!
//! [[video]]                 # video id 2
//! protocol = "dhb-d"        # DHB-d periods from the VBR pipeline
//! preset = "matrix"
//! seed = 1
//! max-wait-secs = 60.0
//!
//! [[video]]                 # video id 3
//! protocol = "periods"      # explicit T[1..=n]
//! periods = [1, 2, 2, 4]
//! segment-secs = 5.0
//! ```

use std::fmt;
use std::fs;
use std::path::Path;

use dhb_core::{DhbScheduler, PlanScheduler, SlotHeuristic, SlotScheduler};
use vod_obs::Journal;
use vod_protocols::NpbGrantScheduler;
use vod_trace::{BroadcastPlan, DhbVariant, FilmPreset};
use vod_types::{Seconds, VideoSpec};

/// What building one catalog entry yields: the video's spec plus its boxed
/// scheduler, or the typed reason it cannot serve.
pub type BuiltEntry = Result<(VideoSpec, Box<dyn SlotScheduler + Send>), CatalogError>;

/// How one catalog entry schedules its segments.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerKind {
    /// Fixed-rate DHB: `T[j] = j` over `segments` equal segments.
    Dhb {
        /// Number of segments.
        segments: usize,
    },
    /// Dynamic-NPB grants over the truncated NPB mapping for `segments`.
    Npb {
        /// Number of segments.
        segments: usize,
    },
    /// DHB over an explicit period vector `T[1..=n]` (`periods[j-1] =
    /// T[j]`). Untrusted: validated when the scheduler is built.
    Periods {
        /// The period vector.
        periods: Vec<u64>,
    },
    /// The Section-4 DHB-d pipeline: synthesize the film preset, derive
    /// the variant-D broadcast plan, serve its relaxed period vector.
    DhbD {
        /// Film preset key (`matrix`, `action`, `drama`, `toon`).
        preset: String,
        /// Trace synthesis seed.
        seed: u64,
        /// Maximum wait (= slot duration) in seconds.
        max_wait_secs: f64,
    },
}

/// One serveable video; its wire id is its position in the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeEntry {
    /// Slot (= segment) duration in seconds. Ignored for
    /// [`SchedulerKind::DhbD`], whose plan fixes its own slot duration.
    pub segment_secs: f64,
    /// The scheduling scheme.
    pub kind: SchedulerKind,
    /// Data-plane payload rate in bytes per media-second (`bytes-per-sec`
    /// in catalog files): a segment's synthesized payload length is this
    /// times the segment duration. `None` uses the service default.
    pub bytes_per_sec: Option<u64>,
}

impl ServeEntry {
    /// A fixed-rate DHB entry matching `spec` — the uniform configuration
    /// older callers passed as `videos × VideoSpec`.
    #[must_use]
    pub fn fixed_rate(spec: VideoSpec) -> Self {
        ServeEntry {
            segment_secs: spec.segment_duration().as_secs_f64(),
            kind: SchedulerKind::Dhb {
                segments: spec.n_segments(),
            },
            bytes_per_sec: None,
        }
    }

    /// The stable protocol key (`dhb`, `npb`, `periods`, `dhb-d`).
    #[must_use]
    pub fn protocol_key(&self) -> &'static str {
        match &self.kind {
            SchedulerKind::Dhb { .. } => "dhb",
            SchedulerKind::Npb { .. } => "npb",
            SchedulerKind::Periods { .. } => "periods",
            SchedulerKind::DhbD { .. } => "dhb-d",
        }
    }

    /// Builds this entry's scheduler and the [`VideoSpec`] driving its slot
    /// clock. Scheduler events go to `journal` where the scheme supports
    /// journaling.
    ///
    /// # Errors
    ///
    /// [`CatalogError::BadEntry`] when the entry cannot back a working
    /// scheduler (zero segments, a zero period, an unknown preset, …).
    /// `video` carries the entry's catalog position when called through
    /// [`ServeCatalog::build`]; direct callers see `u32::MAX`.
    pub fn build(&self, journal: &Journal) -> BuiltEntry {
        self.build_as(u32::MAX, journal)
    }

    fn build_as(&self, video: u32, journal: &Journal) -> BuiltEntry {
        let bad = |message: String| CatalogError::BadEntry { video, message };
        let spec_for = |segments: usize, segment_secs: f64| {
            VideoSpec::new(Seconds::new(segment_secs * segments as f64), segments)
                .map_err(|e| bad(e.to_string()))
        };
        match &self.kind {
            SchedulerKind::Dhb { segments } => {
                let spec = spec_for(*segments, self.segment_secs)?;
                let scheduler = DhbScheduler::try_new(
                    (1..=*segments as u64).collect(),
                    SlotHeuristic::MinLoadLatest,
                )
                .map_err(|e| bad(e.to_string()))?
                .with_journal(journal.clone());
                Ok((spec, Box::new(scheduler)))
            }
            SchedulerKind::Npb { segments } => {
                let spec = spec_for(*segments, self.segment_secs)?;
                let scheduler = NpbGrantScheduler::try_for_segments(*segments)
                    .map_err(|e| bad(e.to_string()))?;
                Ok((spec, Box::new(scheduler)))
            }
            SchedulerKind::Periods { periods } => {
                let spec = spec_for(periods.len(), self.segment_secs)?;
                let scheduler =
                    DhbScheduler::try_new(periods.clone(), SlotHeuristic::MinLoadLatest)
                        .map_err(|e| bad(e.to_string()))?
                        .with_journal(journal.clone());
                Ok((spec, Box::new(scheduler)))
            }
            SchedulerKind::DhbD {
                preset,
                seed,
                max_wait_secs,
            } => {
                let preset = preset_from_key(preset).ok_or_else(|| {
                    bad(format!(
                        "unknown preset {preset:?} (matrix|action|drama|toon)"
                    ))
                })?;
                if !max_wait_secs.is_finite() || *max_wait_secs <= 0.0 {
                    return Err(bad(format!(
                        "max-wait-secs must be positive, got {max_wait_secs}"
                    )));
                }
                let plan = BroadcastPlan::for_variant(
                    &preset.trace(*seed),
                    DhbVariant::D,
                    Seconds::new(*max_wait_secs),
                );
                let spec = spec_for(plan.n_segments, plan.slot_duration.as_secs_f64())?;
                let scheduler =
                    PlanScheduler::try_from_plan(&plan).map_err(|e| bad(e.to_string()))?;
                Ok((spec, Box::new(scheduler)))
            }
        }
    }
}

fn preset_from_key(key: &str) -> Option<FilmPreset> {
    match key {
        "matrix" => Some(FilmPreset::MatrixLike),
        "action" => Some(FilmPreset::ActionBlockbuster),
        "drama" => Some(FilmPreset::DialogueDrama),
        "toon" => Some(FilmPreset::AnimatedFeature),
        _ => None,
    }
}

/// What `vodsim serve` hosts: an ordered list of [`ServeEntry`]s whose
/// positions are the wire video ids.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCatalog {
    entries: Vec<ServeEntry>,
}

impl ServeCatalog {
    /// A catalog of explicit entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty — a service with nothing to serve is a
    /// configuration bug, not a runtime condition.
    #[must_use]
    pub fn from_entries(entries: Vec<ServeEntry>) -> Self {
        assert!(
            !entries.is_empty(),
            "a serve catalog needs at least one video"
        );
        ServeCatalog { entries }
    }

    /// The uniform catalog older configurations described as `videos`
    /// copies of one fixed-rate DHB `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `videos` is zero.
    #[must_use]
    pub fn uniform(videos: u32, spec: VideoSpec) -> Self {
        assert!(videos > 0, "a serve catalog needs at least one video");
        ServeCatalog {
            entries: (0..videos).map(|_| ServeEntry::fixed_rate(spec)).collect(),
        }
    }

    /// The entries, in wire-id order.
    #[must_use]
    pub fn entries(&self) -> &[ServeEntry] {
        &self.entries
    }

    /// Number of videos.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false: empty catalogs cannot be constructed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds every entry, preserving catalog order: `Ok` entries are
    /// serveable videos, `Err` entries must be answered with a rejection.
    #[must_use]
    pub fn build(&self, journal: &Journal) -> Vec<BuiltEntry> {
        self.entries
            .iter()
            .enumerate()
            .map(|(id, e)| e.build_as(id as u32, journal))
            .collect()
    }

    /// Loads a catalog file (the TOML subset in the module docs).
    ///
    /// # Errors
    ///
    /// [`CatalogError::Io`] if the file cannot be read, or any parse error
    /// from [`parse`](Self::parse).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CatalogError> {
        let path = path.as_ref();
        let text = fs::read_to_string(path)
            .map_err(|e| CatalogError::Io(format!("{}: {e}", path.display())))?;
        ServeCatalog::parse(&text)
    }

    /// Parses catalog text. Syntax errors are rejected here; *semantic*
    /// errors (zero periods, bad presets) survive into the catalog so the
    /// service can reject exactly the broken entries at build time.
    ///
    /// # Errors
    ///
    /// [`CatalogError::Parse`] with the 1-based offending line, or
    /// [`CatalogError::Empty`] when no `[[video]]` table is present.
    pub fn parse(text: &str) -> Result<Self, CatalogError> {
        let mut entries = Vec::new();
        let mut current: Option<RawEntry> = None;
        for (idx, raw_line) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw_line).trim().to_owned();
            if line.is_empty() {
                continue;
            }
            if line == "[[video]]" {
                if let Some(raw) = current.replace(RawEntry::new(line_no)) {
                    entries.push(raw.interpret()?);
                }
                continue;
            }
            if line.starts_with('[') {
                return Err(CatalogError::Parse {
                    line: line_no,
                    message: format!("unknown table {line:?}; expected [[video]]"),
                });
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(CatalogError::Parse {
                    line: line_no,
                    message: format!("expected key = value, got {line:?}"),
                });
            };
            let Some(raw) = current.as_mut() else {
                return Err(CatalogError::Parse {
                    line: line_no,
                    message: "key outside a [[video]] table".to_owned(),
                });
            };
            raw.fields
                .push((key.trim().to_owned(), value.trim().to_owned(), line_no));
        }
        if let Some(raw) = current {
            entries.push(raw.interpret()?);
        }
        if entries.is_empty() {
            return Err(CatalogError::Empty);
        }
        Ok(ServeCatalog { entries })
    }
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// An un-interpreted `[[video]]` table.
#[derive(Debug)]
struct RawEntry {
    line: usize,
    fields: Vec<(String, String, usize)>,
}

impl RawEntry {
    fn new(line: usize) -> Self {
        RawEntry {
            line,
            fields: Vec::new(),
        }
    }

    fn take(&mut self, key: &str) -> Option<(String, usize)> {
        let idx = self.fields.iter().position(|(k, _, _)| k == key)?;
        let (_, value, line) = self.fields.remove(idx);
        Some((value, line))
    }

    fn take_string(&mut self, key: &str) -> Result<Option<String>, CatalogError> {
        self.take(key)
            .map(|(v, line)| {
                v.strip_prefix('"')
                    .and_then(|rest| rest.strip_suffix('"'))
                    .map(str::to_owned)
                    .ok_or_else(|| CatalogError::Parse {
                        line,
                        message: format!("{key} must be a double-quoted string, got {v}"),
                    })
            })
            .transpose()
    }

    fn take_u64(&mut self, key: &str) -> Result<Option<u64>, CatalogError> {
        self.take(key)
            .map(|(v, line)| {
                v.parse::<u64>().map_err(|_| CatalogError::Parse {
                    line,
                    message: format!("{key} must be a non-negative integer, got {v}"),
                })
            })
            .transpose()
    }

    fn take_f64(&mut self, key: &str) -> Result<Option<f64>, CatalogError> {
        self.take(key)
            .map(|(v, line)| {
                v.parse::<f64>().map_err(|_| CatalogError::Parse {
                    line,
                    message: format!("{key} must be a number, got {v}"),
                })
            })
            .transpose()
    }

    fn take_u64_list(&mut self, key: &str) -> Result<Option<Vec<u64>>, CatalogError> {
        self.take(key)
            .map(|(v, line)| {
                let body = v
                    .strip_prefix('[')
                    .and_then(|rest| rest.strip_suffix(']'))
                    .ok_or_else(|| CatalogError::Parse {
                        line,
                        message: format!("{key} must be an array like [1, 2, 3], got {v}"),
                    })?;
                let body = body.trim();
                if body.is_empty() {
                    return Ok(Vec::new());
                }
                body.split(',')
                    .map(|p| {
                        p.trim().parse::<u64>().map_err(|_| CatalogError::Parse {
                            line,
                            message: format!("{key}: {:?} is not an integer", p.trim()),
                        })
                    })
                    .collect()
            })
            .transpose()
    }

    fn interpret(mut self) -> Result<ServeEntry, CatalogError> {
        let line = self.line;
        let protocol = self
            .take_string("protocol")?
            .ok_or_else(|| CatalogError::Parse {
                line,
                message: "[[video]] table is missing protocol".to_owned(),
            })?;
        let segment_secs_explicit = self.take_f64("segment-secs")?;
        let duration_mins = self.take_f64("duration-mins")?;
        let segments = self.take_u64("segments")?;
        let bytes_per_sec = self.take_u64("bytes-per-sec")?;
        let segment_secs_for = |n: usize| match (segment_secs_explicit, duration_mins) {
            (Some(s), _) => s,
            (None, Some(mins)) if n > 0 => mins * 60.0 / n as f64,
            _ => 10.0,
        };
        let kind = match protocol.as_str() {
            "dhb" | "npb" => {
                let segments = segments.ok_or_else(|| CatalogError::Parse {
                    line,
                    message: format!("protocol {protocol:?} requires segments"),
                })? as usize;
                if protocol == "dhb" {
                    SchedulerKind::Dhb { segments }
                } else {
                    SchedulerKind::Npb { segments }
                }
            }
            "periods" => {
                let periods =
                    self.take_u64_list("periods")?
                        .ok_or_else(|| CatalogError::Parse {
                            line,
                            message: "protocol \"periods\" requires a periods array".to_owned(),
                        })?;
                SchedulerKind::Periods { periods }
            }
            "dhb-d" => SchedulerKind::DhbD {
                preset: self
                    .take_string("preset")?
                    .unwrap_or_else(|| "matrix".to_owned()),
                seed: self.take_u64("seed")?.unwrap_or(1),
                max_wait_secs: self.take_f64("max-wait-secs")?.unwrap_or(60.0),
            },
            other => {
                return Err(CatalogError::Parse {
                    line,
                    message: format!("unknown protocol {other:?} (dhb|npb|periods|dhb-d)"),
                })
            }
        };
        if let Some((key, _, line)) = self.fields.first() {
            return Err(CatalogError::Parse {
                line: *line,
                message: format!("unknown key {key:?}"),
            });
        }
        let segment_secs = match &kind {
            SchedulerKind::Dhb { segments } | SchedulerKind::Npb { segments } => {
                segment_secs_for(*segments)
            }
            SchedulerKind::Periods { periods } => segment_secs_for(periods.len()),
            SchedulerKind::DhbD { .. } => 0.0, // the plan fixes its own slot
        };
        Ok(ServeEntry {
            segment_secs,
            kind,
            bytes_per_sec,
        })
    }
}

/// Errors loading, parsing or building a serve catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The catalog file could not be read.
    Io(String),
    /// A syntax error, with the 1-based line number.
    Parse {
        /// Offending line (1-based).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The file contained no `[[video]]` table.
    Empty,
    /// An entry parsed but cannot back a working scheduler.
    BadEntry {
        /// The entry's catalog position (wire video id).
        video: u32,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Io(msg) => write!(f, "catalog: {msg}"),
            CatalogError::Parse { line, message } => {
                write!(f, "catalog line {line}: {message}")
            }
            CatalogError::Empty => f.write_str("catalog has no [[video]] tables"),
            CatalogError::BadEntry { video, message } => {
                write!(f, "catalog video {video}: {message}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

#[cfg(test)]
mod tests {
    use super::*;

    const MIXED: &str = r#"
# a three-scheme catalog
[[video]]
protocol = "dhb"
segments = 6
segment-secs = 10.0

[[video]]
protocol = "npb"    # dynamic NPB
segments = 9
segment-secs = 10.0

[[video]]
protocol = "dhb-d"
preset = "matrix"
seed = 1
max-wait-secs = 60.0
"#;

    #[test]
    fn mixed_catalog_parses_and_builds() {
        let catalog = ServeCatalog::parse(MIXED).expect("parses");
        assert_eq!(catalog.len(), 3);
        assert_eq!(catalog.entries()[0].protocol_key(), "dhb");
        assert_eq!(catalog.entries()[1].protocol_key(), "npb");
        assert_eq!(catalog.entries()[2].protocol_key(), "dhb-d");
        let journal = Journal::disabled();
        let built = catalog.build(&journal);
        assert_eq!(built.len(), 3);
        let mut names = Vec::new();
        let mut segment_counts = Vec::new();
        for result in built {
            let (spec, scheduler) = result.expect("every entry builds");
            assert_eq!(spec.n_segments(), scheduler.n_segments());
            names.push(scheduler.name().to_owned());
            segment_counts.push(scheduler.n_segments());
        }
        assert_eq!(names, ["DHB", "dyn-NPB", "DHB-d"]);
        assert_eq!(segment_counts[0], 6);
        assert_eq!(segment_counts[1], 9);
        assert!(segment_counts[2] > 100, "DHB-d plan is feature length");
    }

    #[test]
    fn dhb_d_periods_are_non_uniform() {
        let catalog =
            ServeCatalog::parse("[[video]]\nprotocol = \"dhb-d\"\npreset = \"matrix\"\nseed = 1\n")
                .expect("parses");
        let built = catalog.build(&Journal::disabled());
        let (_, scheduler) = built
            .into_iter()
            .next()
            .expect("one entry")
            .expect("builds");
        let periods = scheduler.periods();
        assert_eq!(periods[0], 1, "first segment airs in the next slot");
        let fixed: Vec<u64> = (1..=periods.len() as u64).collect();
        assert_ne!(
            periods,
            fixed.as_slice(),
            "DHB-d must relax the fixed-rate vector"
        );
    }

    #[test]
    fn bad_entries_fail_at_build_not_parse() {
        let text = "[[video]]\nprotocol = \"periods\"\nperiods = [1, 0, 3]\n";
        let catalog = ServeCatalog::parse(text).expect("syntax is fine");
        let built = catalog.build(&Journal::disabled());
        match &built[0] {
            Err(CatalogError::BadEntry { video: 0, message }) => {
                assert!(message.contains("S_2"), "{message}");
            }
            Err(other) => panic!("expected BadEntry, got {other:?}"),
            Ok(_) => panic!("expected BadEntry, got a working scheduler"),
        }
    }

    #[test]
    fn good_entries_survive_a_bad_neighbour() {
        let text = "[[video]]\nprotocol = \"dhb\"\nsegments = 4\n\n\
                    [[video]]\nprotocol = \"periods\"\nperiods = []\n";
        let catalog = ServeCatalog::parse(text).expect("syntax is fine");
        let built = catalog.build(&Journal::disabled());
        assert!(built[0].is_ok());
        assert!(built[1].is_err());
    }

    #[test]
    fn syntax_errors_name_the_line() {
        let err = ServeCatalog::parse("[[video]]\nprotocol = \"dhb\"\nsegments six\n").unwrap_err();
        assert_eq!(
            err,
            CatalogError::Parse {
                line: 3,
                message: "expected key = value, got \"segments six\"".to_owned()
            }
        );
        assert!(ServeCatalog::parse("").is_err());
        assert!(ServeCatalog::parse("protocol = \"dhb\"\n").is_err());
        let unknown =
            ServeCatalog::parse("[[video]]\nprotocol = \"dhb\"\nsegments = 4\nbogus = 1\n")
                .unwrap_err();
        assert!(
            matches!(unknown, CatalogError::Parse { line: 4, .. }),
            "{unknown}"
        );
        let table =
            ServeCatalog::parse("[adaptive]\n[[video]]\nprotocol = \"dhb\"\nsegments = 4\n")
                .unwrap_err();
        assert_eq!(
            table,
            CatalogError::Parse {
                line: 1,
                message: "unknown table \"[adaptive]\"; expected [[video]]".to_owned()
            }
        );
    }

    #[test]
    fn uniform_matches_the_legacy_configuration() {
        let spec = VideoSpec::new(Seconds::new(60.0), 6).expect("valid");
        let catalog = ServeCatalog::uniform(3, spec);
        assert_eq!(catalog.len(), 3);
        for result in catalog.build(&Journal::disabled()) {
            let (built_spec, scheduler) = result.expect("uniform entries build");
            assert_eq!(built_spec, spec);
            assert_eq!(scheduler.name(), "DHB");
            assert_eq!(scheduler.periods(), &[1, 2, 3, 4, 5, 6]);
        }
    }
}
