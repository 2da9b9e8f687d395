//! Fleet-fabric acceptance: the sharded multi-process campaign must
//! converge to the *identical* summary the single-process run produces —
//! under a hostile kill schedule (every worker SIGKILLed at least once),
//! with a hung worker the watchdog has to reap, and with a torn
//! checkpoint left over from a previous incarnation.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use hdiff::fleet::{run_fleet, FleetConfig};
use hdiff::{HDiff, HdiffConfig};

/// The fleet tests spawn real worker processes and the watchdog test
/// asserts on wall-clock silence; running them concurrently makes both
/// flaky under load. One at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Catalog-only corpus (the full Table II inventory): small enough that
/// a worker incarnation is cheap, rich enough that the merged summary
/// carries findings of every class.
fn catalog_config() -> HdiffConfig {
    let mut c = HdiffConfig::quick();
    c.sr_variants = 0;
    c.abnf_seeds = 0;
    c.mutants_per_seed = 0;
    c.threads = 2;
    c.checkpoint_every = 2;
    c
}

fn fleet_config(shards: u32, tag: &str) -> FleetConfig {
    let dir = std::env::temp_dir().join(format!("hdiff-fleet-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut f = FleetConfig::new(shards, dir);
    f.worker_exe = PathBuf::from(env!("CARGO_BIN_EXE_hdiff"));
    f.poll_interval = Duration::from_millis(20);
    f.backoff_base = Duration::from_millis(10);
    f
}

#[test]
fn chaos_campaign_converges_to_the_single_process_summary() {
    let _guard = serial();
    let config = catalog_config();
    let single = HDiff::new(config.clone()).run();

    // Rate 100: *every* incarnation that can still be killed (one more
    // checkpoint interval fits before the shard end) is killed.
    let mut fleet = fleet_config(4, "chaos");
    fleet.chaos_rate = 100;
    let merged = run_fleet(&config, &fleet).expect("fleet campaign");

    assert!(
        merged.summary.shard_errors.is_empty(),
        "chaos kills must not exhaust any respawn budget: {:?}",
        merged.summary.shard_errors
    );
    let topo = &merged.summary.topology;
    assert_eq!(topo.shards, 4);
    for (i, s) in topo.stats.iter().enumerate() {
        assert!(s.chaos_kills >= 1, "shard {i} was never killed: {s:?}");
        assert!(s.respawns >= 1, "shard {i} was never respawned: {s:?}");
        assert!(s.generation >= 1, "shard {i} never checkpointed: {s:?}");
    }
    assert_eq!(
        merged.summary, single.summary,
        "merged summary must be identical to the single-process run"
    );
    assert_eq!(
        merged.summary.telemetry.merged.shape_digest(),
        single.summary.telemetry.merged.shape_digest(),
        "merged telemetry shape must match the single-process run"
    );
    assert_eq!(merged.summary.cases, merged.total_cases(), "no case may be lost in the merge");
}

#[test]
fn stalled_worker_is_watchdogged_and_redispatched() {
    let _guard = serial();
    let config = catalog_config();
    let single = HDiff::new(config.clone()).run();

    // Shard 0's first incarnation hangs after one liveness tick; the
    // watchdog must declare it dead on silence (the process never exits
    // on its own) and the respawn must finish the shard.
    let mut fleet = fleet_config(2, "stall");
    fleet.stall_shard = Some((0, 0));
    fleet.heartbeat_timeout = Duration::from_millis(1500);
    let merged = run_fleet(&config, &fleet).expect("fleet campaign");

    let topo = &merged.summary.topology;
    assert_eq!(topo.stats[0].watchdog_kills, 1, "{:?}", topo.stats);
    assert!(topo.stats[0].respawns >= 1, "{:?}", topo.stats);
    assert_eq!(topo.stats[1].watchdog_kills, 0, "healthy shard reaped: {:?}", topo.stats);
    assert!(merged.summary.shard_errors.is_empty(), "{:?}", merged.summary.shard_errors);
    assert_eq!(merged.summary, single.summary);
}

#[test]
fn torn_checkpoint_falls_back_to_a_clean_shard_restart() {
    let _guard = serial();
    let config = catalog_config();
    let single = HDiff::new(config.clone()).run();

    // A checkpoint truncated mid-record (as if a worker died mid-write
    // on a filesystem without the atomic-rename guarantee): the worker
    // must discard it and restart the shard clean, not crash or resume
    // from garbage.
    let fleet = fleet_config(2, "torn");
    std::fs::create_dir_all(&fleet.dir).unwrap();
    std::fs::write(
        fleet.dir.join("shard-0.json"),
        b"{\"version\":1,\"generation\":3,\"completed\":[{\"uu",
    )
    .unwrap();
    let merged = run_fleet(&config, &fleet).expect("fleet campaign");

    assert!(merged.summary.shard_errors.is_empty(), "{:?}", merged.summary.shard_errors);
    assert_eq!(merged.summary, single.summary);
}

/// A worker that prints `hdiff-done` and exits at once can have its exit
/// noticed before its last line is read. This worker makes that ordering
/// certain: it runs the real worker, prints every line but `hdiff-done`,
/// and exits, leaving a child that holds stdout open, waits until the
/// supervisor has reaped the worker (its pid is gone), and only then
/// prints the `hdiff-done` line. The supervisor must wait for the end of
/// the stream and count each shard done — not charge a failure, back off
/// and respawn a worker that already finished.
#[cfg(unix)]
#[test]
fn a_done_line_read_after_the_worker_exits_still_finishes_the_shard() {
    use std::os::unix::fs::PermissionsExt;

    let _guard = serial();
    let config = catalog_config();
    let single = HDiff::new(config.clone()).run();

    let mut fleet = fleet_config(2, "late-done");
    let script = std::env::temp_dir().join(format!("hdiff-late-done-{}.sh", std::process::id()));
    std::fs::write(
        &script,
        format!(
            "#!/bin/sh\n\
             out=$('{}' \"$@\") || exit $?\n\
             printf '%s\\n' \"$out\" | grep -v '^hdiff-done'\n\
             worker=$$\n\
             (while kill -0 $worker 2>/dev/null; do sleep 0.01; done\n\
              printf '%s\\n' \"$out\" | grep '^hdiff-done') &\n",
            env!("CARGO_BIN_EXE_hdiff")
        ),
    )
    .unwrap();
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    fleet.worker_exe = script.clone();
    let merged = run_fleet(&config, &fleet);
    std::fs::remove_file(&script).ok();
    let merged = merged.expect("fleet campaign");

    let topo = &merged.summary.topology;
    assert_eq!(topo.total_respawns(), 0, "a finished worker was respawned: {:?}", topo.stats);
    assert!(merged.summary.shard_errors.is_empty(), "{:?}", merged.summary.shard_errors);
    assert_eq!(merged.summary, single.summary);
}
