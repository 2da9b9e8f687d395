//! The fleet supervisor: spawn, watch, recover, merge.
//!
//! The supervisor prepares the campaign once (so it holds the canonical
//! corpus), writes the config to disk for the workers, then dispatches
//! one `hdiff worker` process per shard and enters a single supervision
//! loop:
//!
//! 1. **Watch.** Reader threads forward each worker's stdout lines (the
//!    [`crate::heartbeat`] protocol) over a channel, then the end of the
//!    stream. Any line refreshes the shard's liveness deadline;
//!    heartbeats additionally record the completed count and checkpoint
//!    generation.
//! 2. **Declare dead.** A worker is dead when its process exits before
//!    reporting `done`, *or* when it stays silent past
//!    [`FleetConfig::heartbeat_timeout`] (then the watchdog SIGKILLs it).
//!    An exit is judged only once the incarnation's stdout has been read
//!    to its end, so a `done` printed just before the exit always counts.
//! 3. **Recover.** A dead shard re-dispatches after exponential backoff,
//!    resuming from the orphaned checkpoint — the new worker is handed
//!    the highest generation the supervisor witnessed as a floor, so it
//!    can never resume from a stale file. A torn checkpoint (SIGKILL
//!    mid-save loses to the atomic rename, but disks happen) degrades to
//!    a clean shard restart inside the worker.
//! 4. **Quarantine.** A shard whose failures exhaust
//!    [`FleetConfig::respawn_budget`] becomes a typed
//!    [`ShardError`] in the merged summary; the campaign completes
//!    without it (graceful degradation, the fleet-level analogue of the
//!    runner's per-case quarantine).
//! 5. **Merge.** Per-shard checkpoints are loaded and reassembled in
//!    corpus order through [`hdiff_diff::DiffEngine::summarize_records`],
//!    so the final [`RunSummary`] is identical to a single-process run
//!    regardless of shard count, kill schedule, or resume history.
//!
//! Chaos drills ([`ChaosPlan`]) piggyback on the same loop: a doomed
//! incarnation is armed with a completed-case threshold one checkpoint
//! interval past its resume point and killed when a heartbeat crosses
//! it — guaranteeing every kill happens *after* new progress was banked.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use hdiff_core::{HDiff, HdiffConfig, PipelineReport, PreparedCampaign};
use hdiff_diff::checkpoint;
use hdiff_diff::{
    shard_ranges, CaseRecord, RunSummary, ShardError, ShardErrorKind, ShardSpec, ShardStat,
    ShardTopology,
};

use crate::chaos::ChaosPlan;
use crate::heartbeat::{self, WorkerLine};

/// Supervisor knobs. Everything time-shaped derives from the testbed's
/// shared [`hdiff_net::io_timeout`] so one env var widens the whole
/// stack coherently; carried here as concrete [`Duration`]s because the
/// timeout is cached per process and workers are separate processes.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker processes (>= 1).
    pub shards: u32,
    /// Chaos kill rate in percent (0 disables the drill).
    pub chaos_rate: u8,
    /// Working directory: the shipped config plus one checkpoint file
    /// per shard.
    pub dir: PathBuf,
    /// The binary to spawn with the `worker` subcommand (defaults to the
    /// running executable).
    pub worker_exe: PathBuf,
    /// Silence past this duration declares a worker dead.
    pub heartbeat_timeout: Duration,
    /// Supervision-loop wakeup interval (exits, watchdog, respawns).
    pub poll_interval: Duration,
    /// Worker failures a shard survives before quarantine (chaos kills
    /// are the supervisor's own doing and do not count).
    pub respawn_budget: u32,
    /// Base of the exponential respawn backoff (failure `k` waits
    /// `backoff_base * 2^(k-1)`).
    pub backoff_base: Duration,
    /// Test hook: spawn this `(shard, incarnation)` with `--stall` so it
    /// hangs after one liveness tick (exercises the watchdog).
    pub stall_shard: Option<(u32, u32)>,
    /// Keep the working directory after the run (default: remove it).
    pub keep_dir: bool,
}

impl FleetConfig {
    /// Defaults for `shards` workers under `dir`.
    pub fn new(shards: u32, dir: impl Into<PathBuf>) -> FleetConfig {
        let io = hdiff_net::io_timeout();
        FleetConfig {
            shards: shards.max(1),
            chaos_rate: 0,
            dir: dir.into(),
            worker_exe: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("hdiff")),
            // A worker ticks every timeout/8; 40 timeouts of silence
            // (20s at the 500ms default) is decisively dead, not slow.
            heartbeat_timeout: io * 40,
            poll_interval: io / 20,
            respawn_budget: 5,
            backoff_base: io / 50,
            stall_shard: None,
            keep_dir: false,
        }
    }
}

/// Runs the whole campaign through the sharded fabric: prepare once,
/// supervise the fleet, merge the shards.
pub fn run_fleet(config: &HdiffConfig, fleet: &FleetConfig) -> io::Result<PipelineReport> {
    let prepared = HDiff::new(config.clone()).prepare();
    let summary = supervise(&prepared, config, fleet)?;
    if !fleet.keep_dir {
        std::fs::remove_dir_all(&fleet.dir).ok();
    }
    Ok(prepared.into_report(summary))
}

enum Phase {
    /// Waiting for the respawn backoff to elapse (due instant).
    Pending(Instant),
    Running,
    Done,
    Failed,
}

struct ShardRun {
    spec: ShardSpec,
    ckpt: PathBuf,
    child: Option<Child>,
    /// Spawns so far; the live incarnation id is `incarnations - 1`.
    incarnations: u32,
    /// Crashes + watchdog kills (not chaos) — the budget counter.
    failures: u32,
    last_seen: Instant,
    completed: usize,
    generation: u64,
    /// Armed chaos threshold: kill once a heartbeat reports this many
    /// completed cases.
    kill_at: Option<usize>,
    done_seen: bool,
    /// The live incarnation's stdout reached its end: every line it
    /// printed has been handled.
    stream_closed: bool,
    chaos_killed: bool,
    watchdog_killed: bool,
    phase: Phase,
    stat: ShardStat,
    error: Option<ShardError>,
}

fn supervise(
    prepared: &PreparedCampaign,
    config: &HdiffConfig,
    fleet: &FleetConfig,
) -> io::Result<RunSummary> {
    std::fs::create_dir_all(&fleet.dir)?;
    let config_path = fleet.dir.join("config.json");
    std::fs::write(&config_path, config.to_json())?;
    // The canonical corpus, persisted once: workers load it instead of
    // re-running SR extraction and generation on every incarnation.
    let corpus_path = fleet.dir.join("corpus.json");
    crate::corpus::save(&corpus_path, &prepared.cases)?;
    let chaos = ChaosPlan::new(config.seed, fleet.chaos_rate);
    let checkpoint_every = config.checkpoint_every.max(1);

    let (tx, rx) = mpsc::channel();
    let mut shards: Vec<ShardRun> = shard_ranges(prepared.cases.len(), fleet.shards)
        .into_iter()
        .map(|spec| ShardRun {
            spec,
            ckpt: fleet.dir.join(format!("shard-{}.json", spec.index)),
            child: None,
            incarnations: 0,
            failures: 0,
            last_seen: Instant::now(),
            completed: 0,
            generation: 0,
            kill_at: None,
            done_seen: false,
            stream_closed: false,
            chaos_killed: false,
            watchdog_killed: false,
            phase: Phase::Pending(Instant::now()),
            stat: ShardStat { cases: spec.len(), ..ShardStat::default() },
            error: None,
        })
        .collect();

    loop {
        for s in &mut shards {
            if matches!(s.phase, Phase::Pending(due) if Instant::now() >= due) {
                spawn_worker(s, fleet, &config_path, &corpus_path, &chaos, checkpoint_every, &tx);
            }
        }
        if shards.iter().all(|s| matches!(s.phase, Phase::Done | Phase::Failed)) {
            break;
        }

        match rx.recv_timeout(fleet.poll_interval) {
            Ok(msg) => {
                handle_line(&mut shards, msg);
                while let Ok(msg) = rx.try_recv() {
                    handle_line(&mut shards, msg);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // Unreachable while we hold `tx`, but never busy-loop.
            Err(mpsc::RecvTimeoutError::Disconnected) => std::thread::sleep(fleet.poll_interval),
        }

        for s in &mut shards {
            if !matches!(s.phase, Phase::Running) {
                continue;
            }
            let Some(child) = s.child.as_mut() else { continue };
            match child.try_wait() {
                // Judge an exit only after the incarnation's last line:
                // a `done` printed just before exiting may still be on its
                // way. (A stream held open past the liveness deadline —
                // by a descendant of the worker — stops the wait.)
                Ok(Some(_))
                    if !s.stream_closed && s.last_seen.elapsed() <= fleet.heartbeat_timeout => {}
                Ok(Some(status)) => {
                    s.child = None;
                    if s.done_seen {
                        s.stat.generation = s.generation;
                        s.phase = Phase::Done;
                    } else if s.chaos_killed {
                        // Our own kill: recover immediately, no backoff,
                        // no budget charge.
                        s.phase = Phase::Pending(Instant::now());
                    } else {
                        let kind = if s.watchdog_killed {
                            ShardErrorKind::HeartbeatTimeout
                        } else {
                            ShardErrorKind::Exit
                        };
                        let detail = if s.watchdog_killed {
                            format!("silent for over {:?}", fleet.heartbeat_timeout)
                        } else {
                            format!(
                                "worker exited ({status}) after {}/{} cases",
                                s.completed,
                                s.spec.len()
                            )
                        };
                        note_failure(s, fleet, kind, detail);
                    }
                }
                Ok(None) => {
                    if s.last_seen.elapsed() > fleet.heartbeat_timeout {
                        let _ = child.kill();
                        let _ = child.wait();
                        s.child = None;
                        s.stat.watchdog_kills += 1;
                        s.watchdog_killed = true;
                        note_failure(
                            s,
                            fleet,
                            ShardErrorKind::HeartbeatTimeout,
                            format!("silent for over {:?}", fleet.heartbeat_timeout),
                        );
                    }
                }
                Err(e) => {
                    s.child = None;
                    note_failure(s, fleet, ShardErrorKind::Exit, format!("wait failed: {e}"));
                }
            }
        }
    }

    // Merge: every shard's final (or last orphaned) checkpoint,
    // reassembled in corpus order by the shared summarize path.
    let mut completed: BTreeMap<u64, CaseRecord> = BTreeMap::new();
    let mut shard_errors = Vec::new();
    let mut stats = Vec::new();
    for s in shards {
        if s.ckpt.exists() {
            match checkpoint::load(&s.ckpt) {
                Ok(records) => completed.extend(records),
                Err(e) => {
                    // A finished shard always leaves a readable file
                    // (saves are atomic); a quarantined one may not.
                    if s.error.is_none() {
                        shard_errors.push(ShardError {
                            shard: s.spec.index,
                            respawns: s.stat.respawns,
                            kind: ShardErrorKind::Exit,
                            detail: format!("unreadable final checkpoint: {e}"),
                        });
                    }
                }
            }
        }
        shard_errors.extend(s.error);
        stats.push(s.stat);
    }
    let mut summary = prepared.engine.summarize_records(&prepared.cases, completed);
    summary.shard_errors = shard_errors;
    summary.topology = ShardTopology { shards: fleet.shards, stats };
    Ok(summary)
}

fn spawn_worker(
    s: &mut ShardRun,
    fleet: &FleetConfig,
    config_path: &Path,
    corpus_path: &Path,
    chaos: &ChaosPlan,
    checkpoint_every: usize,
    tx: &mpsc::Sender<(u32, u32, Option<WorkerLine>)>,
) {
    let incarnation = s.incarnations;
    s.incarnations += 1;
    if incarnation > 0 {
        s.stat.respawns += 1;
    }
    s.done_seen = false;
    s.stream_closed = false;
    s.chaos_killed = false;
    s.watchdog_killed = false;
    s.kill_at = None;

    let mut cmd = Command::new(&fleet.worker_exe);
    cmd.arg("worker")
        .arg("--shard")
        .arg(s.spec.to_arg())
        .arg("--checkpoint")
        .arg(&s.ckpt)
        .arg("--config")
        .arg(config_path)
        .arg("--corpus")
        .arg(corpus_path)
        .arg("--min-generation")
        .arg(s.generation.to_string())
        .arg("--alive-interval-ms")
        .arg(((fleet.heartbeat_timeout.as_millis() / 8).max(1)).to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if chaos.kills(s.spec.index, incarnation) {
        // Arm the kill one checkpoint interval past the shard's banked
        // progress — but never when the shard would finish first, so
        // kills taper off and a 100% rate still terminates.
        let kill_at = s.completed + checkpoint_every;
        if kill_at < s.spec.len() {
            s.kill_at = Some(kill_at);
            // The drill's kill window: the worker idles after each
            // heartbeat long enough for the SIGKILL to land.
            cmd.arg("--chaos-pause-ms")
                .arg((fleet.poll_interval.as_millis() * 4).max(10).to_string());
        }
    }
    if fleet.stall_shard == Some((s.spec.index, incarnation)) {
        cmd.arg("--stall");
    }

    match cmd.spawn() {
        Ok(mut child) => {
            match child.stdout.take() {
                Some(stdout) => {
                    let tx = tx.clone();
                    let index = s.spec.index;
                    std::thread::spawn(move || {
                        for line in BufReader::new(stdout).lines() {
                            let Ok(line) = line else { break };
                            let line = Some(heartbeat::parse(&line));
                            if tx.send((index, incarnation, line)).is_err() {
                                return;
                            }
                        }
                        // The end of the stream, after every line.
                        let _ = tx.send((index, incarnation, None));
                    });
                }
                None => s.stream_closed = true,
            }
            s.child = Some(child);
            s.last_seen = Instant::now();
            s.phase = Phase::Running;
        }
        Err(e) => note_failure(s, fleet, ShardErrorKind::Spawn, format!("spawn failed: {e}")),
    }
}

/// Handles one line of a worker's stdout, or (`None`) the end of it.
fn handle_line(
    shards: &mut [ShardRun],
    (index, incarnation, line): (u32, u32, Option<WorkerLine>),
) {
    let Some(s) = shards.iter_mut().find(|s| s.spec.index == index) else { return };
    // A line from a killed predecessor must not refresh the live
    // incarnation's deadline or roll its progress back.
    if incarnation + 1 != s.incarnations {
        return;
    }
    let Some(line) = line else {
        s.stream_closed = true;
        return;
    };
    s.last_seen = Instant::now();
    match line {
        WorkerLine::Alive | WorkerLine::Other(_) => {}
        WorkerLine::Heartbeat { completed, generation } => {
            s.completed = completed;
            s.generation = s.generation.max(generation);
            s.stat.generation = s.generation;
        }
        WorkerLine::Done { completed } => {
            s.completed = completed;
            s.done_seen = true;
        }
    }
    if !s.done_seen {
        if let Some(kill_at) = s.kill_at {
            if s.completed >= kill_at {
                s.kill_at = None;
                if let Some(child) = s.child.as_mut() {
                    let _ = child.kill();
                    s.stat.chaos_kills += 1;
                    s.chaos_killed = true;
                }
            }
        }
    }
}

fn note_failure(s: &mut ShardRun, fleet: &FleetConfig, kind: ShardErrorKind, detail: String) {
    s.failures += 1;
    if s.failures > fleet.respawn_budget {
        s.error = Some(ShardError { shard: s.spec.index, respawns: s.stat.respawns, kind, detail });
        s.phase = Phase::Failed;
        return;
    }
    let k = s.failures.min(16);
    s.stat.backoff_units += 1u64 << k;
    s.phase = Phase::Pending(Instant::now() + fleet.backoff_base * (1u32 << (k - 1)));
}
