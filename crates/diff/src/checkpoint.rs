//! Campaign checkpoint persistence.
//!
//! Long fault-injection campaigns must survive interruption: the runner
//! serializes every completed [`CaseRecord`] to a JSON file every
//! checkpoint interval, and a restarted run loads the file, skips the
//! completed uuids and converges to the identical [`crate::RunSummary`].
//!
//! The format is a single JSON object:
//!
//! ```json
//! {"version":1,"generation":3,"completed":[{"uuid":7,"replayed":true,
//!  "retries":1,"backoff_units":4,"quarantined":false,
//!  "error":{"kind":"io","detail":"connection reset …"},
//!  "findings":[…],"degradations":[…]}]}
//! ```
//!
//! `generation` is a monotonic save counter: every save writes the next
//! generation, and a resumed run continues counting from the loaded
//! value. A fleet supervisor that watched a worker heartbeat generation
//! `g` can therefore demand `g` as a floor when re-dispatching the shard
//! — a file older than the progress it already witnessed (swapped,
//! rolled back, left over from an earlier incarnation) is *stale* and
//! must not be resumed from (see [`resume_state`]).
//!
//! The JSON value/parser machinery lives in [`crate::json`] (shared with
//! the replay-bundle codec); this module owns the record shape. The codec
//! is hand-rolled (no serialization dependency) so the runner stays
//! format-agnostic.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

use hdiff_gen::AttackClass;
use hdiff_obs::CaseTelemetry;
use hdiff_servers::fault::FaultKind;

use crate::detect::DegradationFinding;
use crate::findings::{Culprits, Evidence, Finding};
use crate::json::{push_json_str, push_opt_str, Json, Parser};
use crate::names::{Name, FILE_NAME_LIMIT};
use crate::runner::{CaseError, CaseRecord};

/// On-disk format version; bumped on incompatible changes.
pub const FORMAT_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

pub(crate) fn class_str(c: AttackClass) -> &'static str {
    match c {
        AttackClass::Hrs => "HRS",
        AttackClass::Hot => "HoT",
        AttackClass::Cpdos => "CPDoS",
    }
}

pub(crate) fn class_from_str(s: &str) -> Option<AttackClass> {
    AttackClass::ALL.into_iter().find(|c| class_str(*c) == s)
}

/// Writes a finding with every name and its evidence as text: name
/// handles never leave the process.
pub(crate) fn write_finding(out: &mut String, f: &Finding) {
    out.push_str("{\"class\":");
    push_json_str(out, class_str(f.class));
    out.push_str(&format!(",\"uuid\":{},\"origin\":", f.uuid));
    push_json_str(out, &f.origin);
    out.push_str(",\"front\":");
    push_opt_str(out, f.front.as_deref());
    out.push_str(",\"back\":");
    push_opt_str(out, f.back.as_deref());
    out.push_str(",\"culprits\":[");
    for (i, c) in f.culprits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, &c);
    }
    out.push_str("],\"evidence\":");
    push_json_str(out, &f.evidence.to_string());
    out.push('}');
}

fn write_degradation(out: &mut String, d: &DegradationFinding) {
    out.push_str(&format!("{{\"uuid\":{},\"fault\":", d.uuid));
    push_json_str(out, d.fault.as_str());
    out.push_str(",\"front_a\":");
    push_json_str(out, &d.front_a);
    out.push_str(",\"front_b\":");
    push_json_str(out, &d.front_b);
    out.push_str(",\"evidence\":");
    push_json_str(out, &d.evidence);
    out.push('}');
}

fn write_record(out: &mut String, r: &CaseRecord) {
    out.push_str(&format!(
        "{{\"uuid\":{},\"replayed\":{},\"retries\":{},\"backoff_units\":{},\"quarantined\":{},\"error\":",
        r.uuid, r.replayed, r.retries, r.backoff_units, r.quarantined
    ));
    match &r.error {
        None => out.push_str("null"),
        Some(e) => {
            out.push_str("{\"kind\":");
            push_json_str(out, e.kind());
            out.push_str(",\"detail\":");
            push_json_str(out, e.detail());
            out.push('}');
        }
    }
    out.push_str(",\"findings\":[");
    for (i, f) in r.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_finding(out, f);
    }
    out.push_str("],\"degradations\":[");
    for (i, d) in r.degradations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_degradation(out, d);
    }
    out.push(']');
    // Telemetry is optional on disk (absent when recording was off), so
    // telemetry-free checkpoints keep their pre-telemetry byte shape. On
    // disk it is keyed by name: metric ids never leave the process.
    if !r.telemetry.is_empty() {
        out.push_str(",\"telemetry\":");
        crate::telemetry_codec::write_telemetry(out, &r.telemetry.to_telemetry());
    }
    out.push('}');
}

/// Serializes the completed-case map and its generation counter to
/// `path`, atomically (write to a sibling temp file, then rename) so an
/// interruption mid-save never leaves a corrupt checkpoint behind.
pub fn save_with_generation(
    path: &Path,
    completed: &BTreeMap<u64, CaseRecord>,
    generation: u64,
) -> io::Result<()> {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"version\":{FORMAT_VERSION},\"generation\":{generation},\"completed\":[\n"
    ));
    for (i, record) in completed.values().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        write_record(&mut out, record);
    }
    out.push_str("\n]}\n");

    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, out.as_bytes())?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

pub(crate) fn data_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn read_name(name: &str) -> io::Result<Name> {
    Name::intern_from_file(name).ok_or_else(|| {
        data_err(format!(
            "name {name:?} not added: files may fill the name table only up to {FILE_NAME_LIMIT} names"
        ))
    })
}

/// Reads a finding written by [`write_finding`]; its evidence comes back
/// as [`Evidence::Text`], equal to the typed value that was written.
pub(crate) fn read_finding(v: &Json) -> io::Result<Finding> {
    let class = v
        .get("class")
        .and_then(Json::as_str)
        .and_then(class_from_str)
        .ok_or_else(|| data_err("finding without a valid class"))?;
    let opt_str = |key: &str| match v.get(key) {
        Some(Json::Str(s)) => Some(s.as_str()),
        _ => None,
    };
    let opt_name = |key: &str| opt_str(key).map(read_name).transpose();
    let mut culprits = Culprits::default();
    for c in v.get("culprits").and_then(Json::as_arr).unwrap_or_default() {
        let Some(c) = c.as_str() else { continue };
        culprits.try_insert(read_name(c)?).map_err(|extra| {
            data_err(format!("finding names more than two culprits (also {extra})"))
        })?;
    }
    Ok(Finding {
        class,
        uuid: v.get("uuid").and_then(Json::as_u64).ok_or_else(|| data_err("finding uuid"))?,
        origin: Arc::from(opt_str("origin").ok_or_else(|| data_err("finding origin"))?),
        front: opt_name("front")?,
        back: opt_name("back")?,
        culprits,
        evidence: Evidence::Text(Arc::from(opt_str("evidence").unwrap_or_default())),
    })
}

fn read_degradation(v: &Json) -> io::Result<DegradationFinding> {
    let fault = v
        .get("fault")
        .and_then(Json::as_str)
        .and_then(FaultKind::parse)
        .ok_or_else(|| data_err("degradation without a valid fault kind"))?;
    let string = |key: &str| {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| data_err(format!("degradation {key}")))
    };
    Ok(DegradationFinding {
        uuid: v.get("uuid").and_then(Json::as_u64).ok_or_else(|| data_err("degradation uuid"))?,
        fault,
        front_a: string("front_a")?,
        front_b: string("front_b")?,
        evidence: string("evidence")?,
    })
}

fn read_error(v: &Json) -> io::Result<Option<CaseError>> {
    match v {
        Json::Null => Ok(None),
        Json::Obj(_) => {
            let kind = v.get("kind").and_then(Json::as_str).unwrap_or_default();
            let detail = v.get("detail").and_then(Json::as_str).unwrap_or_default().to_string();
            let e = match kind {
                "panic" => CaseError::Panic(detail),
                "budget" => CaseError::Budget(detail),
                "fault" => CaseError::Fault(detail),
                "io" => CaseError::Io(detail),
                other => return Err(data_err(format!("unknown error kind {other:?}"))),
            };
            Ok(Some(e))
        }
        _ => Err(data_err("error field must be null or an object")),
    }
}

fn read_record(v: &Json) -> io::Result<CaseRecord> {
    let u64_field = |key: &str| {
        v.get(key).and_then(Json::as_u64).ok_or_else(|| data_err(format!("record {key}")))
    };
    let bool_field = |key: &str| {
        v.get(key).and_then(Json::as_bool).ok_or_else(|| data_err(format!("record {key}")))
    };
    Ok(CaseRecord {
        uuid: u64_field("uuid")?,
        replayed: bool_field("replayed")?,
        retries: u32::try_from(u64_field("retries")?).map_err(|_| data_err("retries range"))?,
        backoff_units: u64_field("backoff_units")?,
        quarantined: bool_field("quarantined")?,
        error: read_error(v.get("error").unwrap_or(&Json::Null))?,
        findings: v
            .get("findings")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(read_finding)
            .collect::<io::Result<_>>()?,
        degradations: v
            .get("degradations")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(read_degradation)
            .collect::<io::Result<_>>()?,
        // Not persisted (see `CaseRecord::accepts`).
        accepts: None,
        telemetry: v
            .get("telemetry")
            .map(crate::telemetry_codec::read_telemetry)
            .transpose()?
            .map(|t| CaseTelemetry::from_telemetry(&t))
            .unwrap_or_default(),
    })
}

/// Loads a checkpoint written by [`save_with_generation`].
pub fn load(path: &Path) -> io::Result<BTreeMap<u64, CaseRecord>> {
    load_with_generation(path).map(|(completed, _)| completed)
}

/// Loads a checkpoint plus its generation counter (0 when the file
/// predates generations).
pub fn load_with_generation(path: &Path) -> io::Result<(BTreeMap<u64, CaseRecord>, u64)> {
    let bytes = std::fs::read(path)?;
    let mut parser = Parser::new(&bytes);
    let root = parser.value()?;
    let version = root.get("version").and_then(Json::as_u64).unwrap_or(0);
    if version != FORMAT_VERSION {
        return Err(data_err(format!(
            "checkpoint format v{version}, this build reads v{FORMAT_VERSION}"
        )));
    }
    let generation = root.get("generation").and_then(Json::as_u64).unwrap_or(0);
    let mut completed = BTreeMap::new();
    for record in root
        .get("completed")
        .and_then(Json::as_arr)
        .ok_or_else(|| data_err("missing completed array"))?
    {
        let record = read_record(record)?;
        completed.insert(record.uuid, record);
    }
    Ok((completed, generation))
}

// ---------------------------------------------------------------------------
// Resilient resume (shard workers)
// ---------------------------------------------------------------------------

/// What a tolerant checkpoint load produced: either resumed progress, or
/// a clean slate with the reason the file was unusable.
#[derive(Debug)]
pub struct ResumeState {
    /// Completed records to skip (empty on a clean start).
    pub completed: BTreeMap<u64, CaseRecord>,
    /// Generation counter to continue from: the loaded generation, or
    /// the caller's floor on a clean start (so fresh saves are never
    /// mistaken for the discarded file).
    pub generation: u64,
    /// Why the file was discarded, when it was (`None` = resumed or no
    /// file existed yet).
    pub discarded: Option<String>,
}

impl ResumeState {
    /// Whether any prior progress was recovered.
    pub fn resumed_cases(&self) -> usize {
        self.completed.len()
    }
}

/// Loads `path` tolerantly for a shard worker restart: a missing file is
/// a normal first start; a truncated/garbled file (a worker killed
/// mid-write before the atomic rename, disk damage) or a *stale* file
/// (generation below `min_generation`, i.e. older than progress the
/// supervisor already witnessed via heartbeats) is discarded — the shard
/// restarts clean instead of erroring the campaign or silently resuming
/// from wrong state. The discard reason is surfaced for logging.
pub fn resume_state(path: &Path, min_generation: u64) -> ResumeState {
    if !path.exists() {
        return ResumeState {
            completed: BTreeMap::new(),
            generation: min_generation,
            discarded: None,
        };
    }
    match load_with_generation(path) {
        Ok((completed, generation)) if generation >= min_generation => {
            ResumeState { completed, generation, discarded: None }
        }
        Ok((_, generation)) => ResumeState {
            completed: BTreeMap::new(),
            generation: min_generation,
            discarded: Some(format!(
                "stale checkpoint: generation {generation} < supervisor floor {min_generation}"
            )),
        },
        Err(e) => ResumeState {
            completed: BTreeMap::new(),
            generation: min_generation,
            discarded: Some(format!("unreadable checkpoint: {e}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> BTreeMap<u64, CaseRecord> {
        let finding = Finding {
            class: AttackClass::Hrs,
            uuid: 3,
            origin: "catalog:bad-te".into(),
            front: Some("squid".into()),
            back: None,
            culprits: ["squid", "iis"].into_iter().collect(),
            evidence: "quote \" backslash \\ newline \n tab \t control \u{1} end".into(),
        };
        let degradation = DegradationFinding {
            uuid: 3,
            fault: FaultKind::TruncateResponse,
            front_a: "apache".into(),
            front_b: "squid".into(),
            evidence: "apache replaces with own 502; squid relays 200".into(),
        };
        [
            (
                3,
                CaseRecord {
                    uuid: 3,
                    replayed: true,
                    retries: 2,
                    backoff_units: 6,
                    quarantined: false,
                    error: Some(CaseError::Io("reset persisted".into())),
                    findings: vec![finding],
                    degradations: vec![degradation],
                    accepts: None,
                    telemetry: {
                        let mut t = hdiff_obs::Telemetry::default();
                        t.record_span("case", 1234);
                        t.record_count("fault.events", 2);
                        t.record_hist("transport.rtt.sim", 987);
                        CaseTelemetry::from_telemetry(&t)
                    },
                },
            ),
            (
                9,
                CaseRecord {
                    uuid: 9,
                    replayed: false,
                    retries: 0,
                    backoff_units: 0,
                    quarantined: true,
                    error: Some(CaseError::Panic("injected parser panic".into())),
                    findings: Vec::new(),
                    degradations: Vec::new(),
                    accepts: None,
                    telemetry: CaseTelemetry::default(),
                },
            ),
        ]
        .into_iter()
        .collect()
    }

    /// The sample record that carries telemetry, as earlier builds
    /// encoded it: checkpoints they wrote must keep decoding, and the
    /// encoding must not drift.
    const PINNED_TELEMETRY_RECORD: &str = r#"{"uuid":3,"replayed":true,"retries":2,"backoff_units":6,"quarantined":false,"error":{"kind":"io","detail":"reset persisted"},"findings":[{"class":"HRS","uuid":3,"origin":"catalog:bad-te","front":"squid","back":null,"culprits":["iis","squid"],"evidence":"quote \" backslash \\ newline \n tab \t control \u0001 end"}],"degradations":[{"uuid":3,"fault":"truncate-response","front_a":"apache","front_b":"squid","evidence":"apache replaces with own 502; squid relays 200"}],"telemetry":{"spans":[{"name":"case","count":1,"total_ns":1234,"min_ns":1234,"max_ns":1234}],"counters":[["fault.events",2]],"hists":[{"name":"transport.rtt.sim","count":1,"total_ns":987,"buckets":[[9,1]]}]}}"#;

    #[test]
    fn the_pinned_telemetry_record_decodes_and_encodes_byte_for_byte() {
        let sample = sample_records().remove(&3).unwrap();
        let parsed = Parser::new(PINNED_TELEMETRY_RECORD.as_bytes()).value().unwrap();
        let decoded = read_record(&parsed).unwrap();
        assert_eq!(decoded, sample);
        let named = decoded.telemetry.to_telemetry();
        let span = &named.spans["case"];
        assert_eq!((span.total_ns, span.min_ns, span.max_ns), (1234, 1234, 1234));
        assert_eq!(named.hists["transport.rtt.sim"].total_ns, 987);
        let mut out = String::new();
        write_record(&mut out, &sample);
        assert_eq!(out, PINNED_TELEMETRY_RECORD);
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let dir = std::env::temp_dir().join("hdiff-ckpt-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.json");
        let records = sample_records();
        save_with_generation(&path, &records, 0).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(records, loaded);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let dir = std::env::temp_dir().join("hdiff-ckpt-version");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.json");
        std::fs::write(&path, b"{\"version\":99,\"completed\":[]}").unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generation_roundtrips_and_defaults_to_zero() {
        let dir = std::env::temp_dir().join("hdiff-ckpt-generation");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.json");
        let records = sample_records();
        save_with_generation(&path, &records, 7).unwrap();
        let (loaded, generation) = load_with_generation(&path).unwrap();
        assert_eq!((loaded, generation), (records.clone(), 7));

        // A pre-generation file (no "generation" key) reads as 0.
        std::fs::write(&path, b"{\"version\":1,\"completed\":[\n]}\n").unwrap();
        let (loaded, generation) = load_with_generation(&path).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(generation, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_state_tolerates_missing_corrupt_and_stale_files() {
        let dir = std::env::temp_dir().join("hdiff-ckpt-resume-state");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard0.json");

        // Missing file: normal first start, generation seeded at the floor.
        let fresh = resume_state(&path, 3);
        assert!(fresh.completed.is_empty() && fresh.discarded.is_none());
        assert_eq!(fresh.generation, 3);

        // Healthy file at or above the floor: resumed.
        let records = sample_records();
        save_with_generation(&path, &records, 5).unwrap();
        let resumed = resume_state(&path, 5);
        assert_eq!(resumed.completed, records);
        assert_eq!(resumed.generation, 5);
        assert!(resumed.discarded.is_none());
        assert_eq!(resumed.resumed_cases(), 2);

        // Stale file (generation below the supervisor's floor): discarded.
        let stale = resume_state(&path, 9);
        assert!(stale.completed.is_empty());
        assert_eq!(stale.generation, 9);
        assert!(stale.discarded.as_deref().unwrap_or("").contains("stale"), "{stale:?}");

        // Truncated mid-write garbage: discarded with a reason, never a panic.
        for garbage in ["", "{\"version\":1,\"generation\":5,\"completed\":[{\"uu", "not json"] {
            std::fs::write(&path, garbage.as_bytes()).unwrap();
            let torn = resume_state(&path, 0);
            assert!(torn.completed.is_empty(), "{garbage:?}");
            assert!(torn.discarded.as_deref().unwrap_or("").contains("unreadable"), "{garbage:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_an_error_not_a_panic() {
        for garbage in ["", "{", "{\"version\":1}", "[1,2", "{\"version\":1,\"completed\":[{}]}"] {
            let mut p = Parser::new(garbage.as_bytes());
            let parsed = p.value();
            if let Ok(root) = parsed {
                // Structurally valid JSON must still fail record validation.
                if root.get("completed").and_then(Json::as_arr).is_some() {
                    let bad = root.get("completed").unwrap().as_arr().unwrap();
                    for r in bad {
                        assert!(read_record(r).is_err());
                    }
                }
            }
        }
    }
}
