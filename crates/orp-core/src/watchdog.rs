//! Stall watchdog: a monitor thread that turns a silent hang into a
//! structured, resumable failure.
//!
//! Long annealing runs and simulations can stop making progress — a
//! livelocked sampler, a wedged worker, a pathological instance — and
//! without supervision they hang forever, losing all work. A
//! [`Watchdog`] watches a shared progress counter that the supervised
//! loop bumps on every unit of work (accepted/proposed move, processed
//! event). If the counter does not move within the configured
//! wall-clock window, the monitor:
//!
//! 1. emits a structured `watchdog.stalled` diagnostic through
//!    `orp-obs` (source, window, last progress count),
//! 2. raises a `stalled` flag that the supervised loop observes at its
//!    next iteration boundary, force-checkpoints, and converts into a
//!    resumable `SaError::Stalled` / simulator equivalent.
//!
//! The watchdog never kills anything itself — the supervised loop stays
//! in control of its own state so the force-checkpoint is taken at a
//! clean boundary. For loops that may be *truly* wedged (not reaching
//! a boundary at all), [`WatchdogConfig::hard_exit`] additionally
//! aborts the process after a second full window with a diagnostic on
//! stderr; the CLI opts into this, library callers do not.

use orp_obs::{Event, Recorder};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// What kind of loop a watchdog supervises; used as the `source` field
/// of the emitted `watchdog.stalled` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchSource {
    /// A single annealer's proposal loop.
    Anneal,
    /// An event-driven simulator's main loop.
    Sim,
}

impl WatchSource {
    fn code(self) -> u32 {
        match self {
            Self::Anneal => 0,
            Self::Sim => 1,
        }
    }
}

/// Configuration for a [`Watchdog`].
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// No-progress window after which the run is declared stalled.
    pub window: Duration,
    /// What the watchdog supervises (for the diagnostic event).
    pub source: WatchSource,
    /// If true, abort the whole process after a *second* full window
    /// elapses with the stall flag raised but unacknowledged — the
    /// supervised loop never reached an iteration boundary and is
    /// truly wedged. Off by default; the CLI enables it.
    pub hard_exit: bool,
}

impl WatchdogConfig {
    /// Watchdog over an annealer with the given window.
    pub fn new(window: Duration) -> Self {
        Self {
            window,
            source: WatchSource::Anneal,
            hard_exit: false,
        }
    }

    /// Sets the supervised source kind.
    pub fn source(mut self, source: WatchSource) -> Self {
        self.source = source;
        self
    }

    /// Enables process abort for truly-wedged loops (see struct docs).
    pub fn hard_exit(mut self, yes: bool) -> Self {
        self.hard_exit = yes;
        self
    }
}

#[derive(Debug)]
struct Shared {
    /// Monotonic units-of-work counter, bumped by the supervised loop.
    progress: AtomicU64,
    /// Set by the monitor when the window elapses without progress.
    stalled: AtomicBool,
    /// Set when the supervised loop observed `stalled` (suppresses
    /// `hard_exit` — the loop is shutting down cleanly).
    acknowledged: AtomicBool,
    /// Set by [`Watchdog::drop`] to retire the monitor thread.
    shutdown: AtomicBool,
}

/// Cheaply cloneable handle the supervised loop uses to report
/// progress and poll for a stall verdict.
#[derive(Debug, Clone)]
pub struct ProgressHandle {
    shared: Arc<Shared>,
}

impl ProgressHandle {
    /// Reports one unit of work (an iteration, a processed event).
    /// Relaxed atomics: ordering does not matter, only eventual
    /// visibility within the window.
    #[inline]
    pub fn tick(&self) {
        self.shared.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// True once the monitor has declared the run stalled. The
    /// supervised loop checks this at iteration boundaries; on `true`
    /// it should force-checkpoint and return a resumable error.
    #[inline]
    pub fn is_stalled(&self) -> bool {
        self.shared.stalled.load(Ordering::Relaxed)
    }

    /// Acknowledges a stall verdict: the loop saw the flag and is
    /// shutting down cleanly, so a `hard_exit` watchdog must not abort
    /// the process out from under the checkpoint write.
    pub fn acknowledge_stall(&self) {
        self.shared.acknowledged.store(true, Ordering::Relaxed);
    }

    /// Total progress units reported so far.
    pub fn progress(&self) -> u64 {
        self.shared.progress.load(Ordering::Relaxed)
    }
}

/// A spawned stall monitor. Dropping it retires the monitor thread
/// (joining it), so the supervised scope cannot leak threads.
#[derive(Debug)]
pub struct Watchdog {
    shared: Arc<Shared>,
    monitor: Option<thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns the monitor thread. `rec` receives the structured
    /// `watchdog.stalled` event if a stall is detected (pass a
    /// disabled recorder to skip telemetry).
    pub fn spawn(cfg: WatchdogConfig, rec: Recorder) -> Self {
        let shared = Arc::new(Shared {
            progress: AtomicU64::new(0),
            stalled: AtomicBool::new(false),
            acknowledged: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let s = Arc::clone(&shared);
        let monitor = thread::Builder::new()
            .name("orp-watchdog".into())
            .spawn(move || monitor_loop(&s, &cfg, &rec))
            .expect("spawn watchdog monitor thread");
        Self {
            shared,
            monitor: Some(monitor),
        }
    }

    /// Handle for the supervised loop.
    pub fn handle(&self) -> ProgressHandle {
        ProgressHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// True once the monitor has declared the run stalled.
    pub fn is_stalled(&self) -> bool {
        self.shared.stalled.load(Ordering::Relaxed)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
    }
}

fn monitor_loop(shared: &Shared, cfg: &WatchdogConfig, rec: &Recorder) {
    // Poll at a quarter of the window so detection latency is at most
    // 1.25 windows, without burning CPU on a hot spin. The upper clamp
    // bounds how long Drop can block on a shutdown join.
    let poll = (cfg.window / 4).clamp(Duration::from_millis(5), Duration::from_millis(200));
    let mut last_seen = shared.progress.load(Ordering::Relaxed);
    let mut last_change = Instant::now();
    loop {
        thread::sleep(poll);
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let now_progress = shared.progress.load(Ordering::Relaxed);
        // Heartbeat gauge for the live stream: when the monitor last
        // looked (recorder-relative µs) and the progress count it saw.
        // Last-write-wins, so `orp watch` flags a silent stream by
        // comparing the heartbeat stamp against the batch clock.
        if rec.is_enabled() {
            rec.gauge("watchdog.heartbeat_us", rec.elapsed_us() as f64);
            rec.gauge("watchdog.progress", now_progress as f64);
        }
        if now_progress != last_seen {
            last_seen = now_progress;
            last_change = Instant::now();
            continue;
        }
        if last_change.elapsed() < cfg.window {
            continue;
        }
        // Stall: raise the flag (once) and emit the diagnostic.
        if !shared.stalled.swap(true, Ordering::Relaxed) {
            rec.emit(Event::Stalled {
                source: cfg.source.code(),
                worker: 0,
                window_secs: cfg.window.as_secs_f64(),
                progress: now_progress,
            });
            rec.incr("watchdog.stalls", 1);
        }
        if !cfg.hard_exit {
            return; // verdict delivered; loop will see it at its boundary
        }
        // hard_exit mode: give the loop one more full window to reach a
        // boundary and acknowledge; otherwise the process is wedged.
        let verdict_at = Instant::now();
        while verdict_at.elapsed() < cfg.window {
            thread::sleep(poll);
            if shared.shutdown.load(Ordering::Relaxed)
                || shared.acknowledged.load(Ordering::Relaxed)
            {
                return;
            }
            if shared.progress.load(Ordering::Relaxed) != last_seen {
                // It woke up after all; unusual, but not wedged.
                return;
            }
        }
        eprintln!(
            "orp watchdog: {:?} loop made no progress for {:.1} s and did not \
             acknowledge the stall verdict; aborting",
            cfg.source,
            (2 * cfg.window).as_secs_f64(),
        );
        std::process::exit(86);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_loop_is_declared_stalled() {
        let wd = Watchdog::spawn(
            WatchdogConfig::new(Duration::from_millis(40)),
            Recorder::disabled(),
        );
        let h = wd.handle();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !h.is_stalled() {
            assert!(Instant::now() < deadline, "watchdog never fired");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn ticking_loop_is_not_stalled() {
        let wd = Watchdog::spawn(
            WatchdogConfig::new(Duration::from_millis(60)),
            Recorder::disabled(),
        );
        let h = wd.handle();
        for _ in 0..30 {
            h.tick();
            thread::sleep(Duration::from_millis(10));
        }
        assert!(!h.is_stalled());
        assert_eq!(h.progress(), 30);
    }

    #[test]
    fn stall_event_reaches_the_recorder() {
        let rec = Recorder::enabled();
        let wd = Watchdog::spawn(
            WatchdogConfig::new(Duration::from_millis(30)).source(WatchSource::Sim),
            rec.clone(),
        );
        let h = wd.handle();
        for _ in 0..17 {
            h.tick();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while !h.is_stalled() {
            assert!(Instant::now() < deadline, "watchdog never fired");
            thread::sleep(Duration::from_millis(5));
        }
        drop(wd);
        let snap = rec.snapshot().expect("enabled recorder snapshots");
        let ev = snap
            .events
            .iter()
            .find(|e| e.event.name() == "watchdog.stalled")
            .expect("stalled event recorded");
        let args = ev.event.args();
        assert!(args.contains(&("source", 1.0)));
        assert!(args.contains(&("worker", 0.0)));
        assert!(args.contains(&("progress", 17.0)));
    }

    #[test]
    fn drop_retires_the_monitor_quickly() {
        let wd = Watchdog::spawn(
            WatchdogConfig::new(Duration::from_secs(3600)),
            Recorder::disabled(),
        );
        let t = Instant::now();
        drop(wd); // must not wait out the hour-long window
        assert!(t.elapsed() < Duration::from_secs(5));
    }
}
