//! The simulator's configuration costs what it holds and no more:
//!
//! * building IS and FT at 1,024 ranks (each ranks² ops) peaks within
//!   1 MiB of the programs' own size — every rank's buffer reserved at
//!   exactly its op count, none grown by doubling;
//! * a checkpointed IS run's first save raises the run's live peak by
//!   at most 1 MiB: the configuration fingerprint over those programs
//!   streams through a fixed-size buffer instead of holding their
//!   encoding whole.
//!
//! A tracking global allocator counts the live bytes of the measuring
//! thread only, so the harness's other threads never inflate a peak.

use orp_core::construct::random_general;
use orp_netsim::npb::Benchmark;
use orp_netsim::{FaultEvent, NetFault, Network, Op, Program, SimError, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

const MIB: usize = 1 << 20;

struct Tracking;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    /// Bytes allocated minus bytes freed since tracking started.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        let live = LIVE.with(|l| {
            l.set(l.get() + delta);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

// SAFETY: every method hands its arguments unchanged to `System`, so
// the caller's guarantees to this allocator are the ones `System`
// needs, and its results go back unchanged. The bookkeeping touches
// only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Runs `f` and returns its result with the most bytes it held live at
/// once on this thread (frees of older memory count as negative).
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, PEAK.with(Cell::get) as usize)
}

/// A fresh scratch directory under the system temp dir, removed with
/// everything in it when the guard drops.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("orp-alloc-peak-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn all_to_all_kernels_build_within_a_mebibyte_of_their_size() {
    let kernels = [Benchmark::Is, Benchmark::Ft];
    let (built, peak) = peak_of(|| kernels.map(|b| b.build(1024, b.paper_class(), 1)));
    let size: usize = built
        .iter()
        .map(|progs| {
            let ops: usize = progs.iter().map(Vec::len).sum();
            ops * size_of::<Op>() + progs.len() * size_of::<Program>()
        })
        .sum();
    assert!(
        peak <= size + MIB,
        "building IS and FT peaked at {peak} bytes for {size} bytes of programs"
    );
}

#[test]
fn the_first_save_of_an_is_run_adds_at_most_a_mebibyte() {
    let ranks = 1024;
    let g = random_general(ranks, 195, 15, 1).expect("the paper instance");
    let net = Network::builder(&g).build();
    let programs = Benchmark::Is.build(ranks, Benchmark::Is.paper_class(), 1);
    // rank 0's switch dies 15 µs in, early in the all-to-all: both runs
    // end there with the same error, one of them after periodic saves
    let fault = [FaultEvent {
        time: 15e-6,
        fault: NetFault::Switch(g.switch_of(0)),
    }];
    let dir = TempDir::new("is");
    let run = |ckpt: Option<&Path>| {
        let b = Simulator::builder(&net)
            .programs(programs.clone())
            .fault_schedule(&fault);
        let sim = match ckpt {
            Some(p) => b.checkpoint(p).checkpoint_every(5_000),
            None => b,
        }
        .build();
        let (result, peak) = peak_of(|| sim.run());
        match result {
            Err(SimError::Partitioned { .. }) => peak,
            other => panic!("expected the fault to partition IS, got {other:?}"),
        }
    };
    let plain = run(None);
    let path = dir.0.join("is.orp");
    let saved = run(Some(&path));
    assert!(path.exists(), "no save before the fault");
    assert!(
        saved <= plain + MIB,
        "the save raised the run's peak from {plain} to {saved} bytes"
    );
}
