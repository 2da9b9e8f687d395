//! A slotted deadline wheel for connection timeouts.
//!
//! The blocking transport gives every socket its own `SO_RCVTIMEO`; with
//! thousands of multiplexed connections the reactor needs one shared
//! structure instead. Deadlines are hashed into coarse time slots
//! (16 ms ticks, 512 slots); arming is O(1).
//!
//! **Sweep rule.** Tick `k` covers `[epoch + k·TICK, epoch + (k+1)·TICK)`.
//! [`Wheel::advance`] sweeps a tick's slot only once the whole tick has
//! elapsed, so every entry of that tick is due when it is swept: an
//! entry fires no earlier than its instant and at most one tick after
//! it. A deadline beyond the single-rotation horizon (~8.2 s) shares its
//! slot with nearer ones and stays there until its own tick has elapsed.
//!
//! **Size bound.** Cancellation is a sequence-number bump, not a
//! removal: each connection carries a monotonically bumped sequence, and
//! the loop ignores a fired entry whose sequence is stale. A superseded
//! entry therefore stays armed until its instant passes. Since every
//! entry fires within a tick of its instant, the wheel holds at most the
//! arms of the last read timeout plus one tick, however long the loop
//! has run.
//!
//! **Epoll timeout.** [`Wheel::next_timeout_ms`] finds the first occupied
//! slot from the first unswept tick on and returns the time until that
//! tick ends, when `advance` will sweep it: O(slots), independent of how
//! many entries are armed.
//!
//! Stall detection keeps its resolution: the campaign's stall
//! observation timeout is `io_timeout()/12` (≈ 41 ms at the default
//! 500 ms), still well above one 16 ms tick.

use std::time::{Duration, Instant};

const TICK_MS: u64 = 16;

/// Wheel tick granularity. Deadlines fire up to one tick late, never
/// early.
pub const TICK: Duration = Duration::from_millis(TICK_MS);

/// Number of slots; `TICK * SLOTS` (~8.2 s) is the single-rotation
/// horizon.
const SLOTS: usize = 512;

fn slot_of(tick: u64) -> usize {
    (tick % SLOTS as u64) as usize
}

#[derive(Debug, Clone, Copy)]
struct Armed {
    /// Slab index of the connection this deadline belongs to.
    conn: usize,
    /// The connection's deadline sequence at arm time; a mismatch at
    /// fire time means the deadline was cancelled or superseded.
    seq: u64,
    /// The tick the deadline fires after: the one its instant falls in,
    /// or the first unswept tick when that one was already swept.
    tick: u64,
}

/// The wheel. One per event loop, driven from the loop's own clock
/// reads — it never looks at the wall clock itself.
#[derive(Debug)]
pub struct Wheel {
    slots: Vec<Vec<Armed>>,
    /// The first tick not yet swept; every earlier tick has fully
    /// elapsed and fired its entries.
    next: u64,
    /// Loop start; tick indices are measured from here.
    epoch: Instant,
    armed: usize,
}

impl Wheel {
    pub fn new(now: Instant) -> Wheel {
        Wheel { slots: vec![Vec::new(); SLOTS], next: 0, epoch: now, armed: 0 }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_millis() as u64 / TICK_MS
    }

    /// Arms a deadline `after` from `now` for connection `conn` with
    /// cancellation sequence `seq`.
    pub fn arm(&mut self, now: Instant, conn: usize, seq: u64, after: Duration) {
        let tick = self.tick_of(now + after).max(self.next);
        self.slots[slot_of(tick)].push(Armed { conn, seq, tick });
        self.armed += 1;
    }

    /// Advances to `now`, invoking `fire(conn, seq)` for every deadline
    /// whose tick has fully elapsed. Entries of a later rotation stay in
    /// their slot.
    pub fn advance(&mut self, now: Instant, mut fire: impl FnMut(usize, u64)) {
        let elapsed = self.tick_of(now);
        // One rotation visits every slot, so a loop that slept longer
        // than the horizon needs no second pass.
        let last = elapsed.min(self.next + SLOTS as u64);
        let mut fired = 0;
        for tick in self.next..last {
            self.slots[slot_of(tick)].retain(|entry| {
                let due = entry.tick < elapsed;
                if due {
                    fired += 1;
                    fire(entry.conn, entry.seq);
                }
                !due
            });
        }
        self.armed -= fired;
        self.next = self.next.max(elapsed);
    }

    /// Milliseconds until the first occupied tick has fully elapsed — the
    /// epoll wait budget, rounded up so the wake lands at or after the
    /// tick's end. Returns `cap` when nothing is armed.
    pub fn next_timeout_ms(&self, now: Instant, cap: u64) -> u64 {
        if self.armed == 0 {
            return cap;
        }
        let first = (self.next..self.next + SLOTS as u64)
            .find(|&tick| !self.slots[slot_of(tick)].is_empty());
        match first {
            Some(tick) => {
                let end = self.epoch + Duration::from_millis((tick + 1) * TICK_MS);
                let wait = end.saturating_duration_since(now).as_nanos().div_ceil(1_000_000);
                (wait as u64).min(cap)
            }
            None => cap,
        }
    }

    /// How many deadlines are currently armed (stale entries included
    /// until their tick has elapsed).
    pub fn armed(&self) -> usize {
        self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// End of the tick `at` falls in, for a wheel whose epoch is `t0`.
    fn tick_end(t0: Instant, at: Instant) -> Instant {
        let tick = ((at - t0).as_millis() / TICK.as_millis()) as u32;
        t0 + TICK * (tick + 1)
    }

    #[test]
    fn fires_after_the_deadline_not_before() {
        let t0 = Instant::now();
        let mut w = Wheel::new(t0);
        w.arm(t0, 7, 1, Duration::from_millis(50));

        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_millis(20), |c, s| fired.push((c, s)));
        assert!(fired.is_empty(), "fired early");

        w.advance(t0 + Duration::from_millis(80), |c, s| fired.push((c, s)));
        assert_eq!(fired, vec![(7, 1)]);
        assert_eq!(w.armed(), 0);
    }

    #[test]
    fn stale_sequences_are_delivered_for_the_owner_to_ignore() {
        // The wheel itself does not cancel; it hands (conn, seq) to the
        // loop, which compares seq against the connection's current one.
        let t0 = Instant::now();
        let mut w = Wheel::new(t0);
        w.arm(t0, 3, 1, Duration::from_millis(10));
        w.arm(t0, 3, 2, Duration::from_millis(10));
        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_millis(64), |c, s| fired.push((c, s)));
        assert_eq!(fired.len(), 2);
    }

    #[test]
    fn horizon_overflow_refiles_until_due() {
        let t0 = Instant::now();
        let mut w = Wheel::new(t0);
        // Beyond one rotation (512 * 16ms ≈ 8.2s).
        w.arm(t0, 1, 9, Duration::from_millis(12_000));
        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_millis(9_000), |c, s| fired.push((c, s)));
        assert!(fired.is_empty(), "fired a rotation early");
        assert_eq!(w.armed(), 1);
        w.advance(t0 + Duration::from_millis(12_100), |c, s| fired.push((c, s)));
        assert_eq!(fired, vec![(1, 9)]);
    }

    #[test]
    fn next_timeout_tracks_the_earliest_deadline() {
        let t0 = Instant::now();
        let mut w = Wheel::new(t0);
        assert_eq!(w.next_timeout_ms(t0, 100), 100);
        w.arm(t0, 1, 1, Duration::from_millis(40));
        let ms = w.next_timeout_ms(t0, 100);
        assert!((30..=60).contains(&ms), "{ms}");
    }

    #[test]
    fn a_sweep_inside_the_tick_but_before_the_instant_does_not_postpone_it() {
        // 20 ms lies in tick 1 (16..32 ms). A sweep at 17 ms is inside
        // that tick but before the instant; the deadline must still fire
        // once the tick is over, not a rotation (~8.2 s) later.
        let t0 = Instant::now();
        let mut w = Wheel::new(t0);
        w.arm(t0, 5, 1, ms(20));
        let mut fired = Vec::new();
        w.advance(t0 + ms(17), |c, s| fired.push((c, s)));
        assert!(fired.is_empty(), "fired before its instant");
        w.advance(t0 + ms(40), |c, s| fired.push((c, s)));
        assert_eq!(fired, vec![(5, 1)]);
        assert_eq!(w.armed(), 0);
    }

    #[test]
    fn a_busy_loop_fires_every_entry_within_a_tick_of_its_instant() {
        // The reactor advances after every wake, far more often than once
        // per tick. Arm at staggered instants — immediate, sub-tick,
        // a few ticks, the stall observation and the read timeout — and
        // advance every 100 µs of simulated time.
        let t0 = Instant::now();
        let mut w = Wheel::new(t0);
        let step = Duration::from_micros(100);
        let lengths = [0, 1, 7, 20, 41, 130, 500].map(ms);
        let mut instants: Vec<Option<Instant>> = Vec::new();
        let mut last = t0;
        let mut now = t0;
        for k in 0u32.. {
            now = t0 + step * k;
            if k < 2_000 && k % 3 == 0 {
                let jitter = Duration::from_micros(u64::from(k * 37 % 1_000));
                let after = lengths[instants.len() % lengths.len()] + jitter;
                w.arm(now, instants.len(), u64::from(k), after);
                instants.push(Some(now + after));
                last = last.max(now + after);
            }
            w.advance(now, |conn, _| {
                let at = instants[conn].take().expect("an entry fires once");
                assert!(now >= at, "entry {conn} fired {:?} early", at - now);
                assert!(now - at <= TICK, "entry {conn} fired {:?} late", now - at);
            });
            if now >= last + TICK {
                break;
            }
        }
        assert!(instants.iter().all(Option::is_none), "unfired entries remain");
        assert_eq!(w.armed(), 0, "armed count not back to zero at {:?}", now - t0);
    }

    #[test]
    fn next_timeout_never_waits_past_a_due_entry_tick() {
        // An idle loop sleeps exactly the returned wait and advances on
        // waking. Entries spread over several slots, one beyond the
        // horizon; every wake must come no later than the end of the
        // earliest pending entry's tick, and every entry must fire within
        // a tick of its instant.
        const CAP: u64 = 100;
        let t0 = Instant::now();
        let mut w = Wheel::new(t0);
        let lengths = [3, 20, 21, 45, 130, 500, 9_000].map(ms);
        let mut instants: Vec<Option<Instant>> = Vec::new();
        for (conn, after) in lengths.iter().enumerate() {
            w.arm(t0, conn, 1, *after);
            instants.push(Some(t0 + *after));
        }
        let mut now = t0;
        let mut wakes = 0;
        while let Some(due) = instants.iter().flatten().min().copied() {
            let wait = w.next_timeout_ms(now, CAP);
            assert!(
                now + ms(wait) <= tick_end(t0, due),
                "at {:?} waited {wait} ms past the tick of the entry due at {:?}",
                now - t0,
                due - t0
            );
            now += ms(wait);
            wakes += 1;
            w.advance(now, |conn, _| {
                let at = instants[conn].take().expect("an entry fires once");
                assert!(now >= at && now - at <= TICK, "entry {conn} fired at {:?}", now - t0);
            });
            // About one wake per occupied tick plus one per capped wait
            // over the 9 s span (94); re-waking every millisecond would
            // take thousands.
            assert!(wakes <= 2 * 9_000 / CAP, "{wakes} wakes");
        }
        assert_eq!(w.armed(), 0);
    }
}
