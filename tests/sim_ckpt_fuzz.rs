//! Mutation fuzzing of the simulator checkpoint's section decoders.
//!
//! A real checkpoint, cut halfway through IS at 16 ranks (inside an
//! all-to-all), is damaged the ways a bad disk or a hostile writer
//! damages a file, one of its flow, sharing-model and event-queue
//! sections at a time: bits flipped, bytes overwritten, the section
//! truncated, and a small integer (a length field or a count) inflated.
//! Each damaged section goes back into the container under a fresh CRC,
//! so the damage reaches the section decoders instead of the checksum.
//! Resuming from it must end in a structured error or a finished run;
//! it must never panic, abort or make an allocation larger than the
//! configuration can justify.
//!
//! The configuration carries a 17th rank whose receive is never matched,
//! so every run of it ends blocked once IS is done. That keeps the
//! periodic mid-run save on disk: a run that finishes writes its
//! completion snapshot over it. A link dies late in the run, after the
//! save, so that each resume also re-routes the flows it restored.

use orp::core::ckpt::{self, Decoder, Encoder};
use orp::core::construct::random_general;
use orp::netsim::npb::Benchmark;
use orp::netsim::{
    FaultEvent, NetFault, Network, Op, Program, SharingMode, SimError, Simulator, SimulatorBuilder,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The system allocator, noting the largest single request.
struct Largest;

/// A statistic only: `Relaxed` publishes nothing else.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method hands its arguments unchanged to `System`, so
// the caller's guarantees to this allocator are the ones `System`
// needs, and its results go back unchanged.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

const RANKS: u32 = 16;

/// IS at 16 ranks plus the never-matched receive of rank 16, which
/// shares host 0.
fn programs() -> Vec<Program> {
    let bench = Benchmark::Is;
    let mut programs = bench.build(RANKS, bench.paper_class(), 1);
    programs.push(vec![Op::Recv { from: 0 }]);
    programs
}

fn network() -> Network {
    Network::builder(&random_general(RANKS, 4, 8, 3).expect("feasible")).build()
}

/// The configuration: IS, the waiting rank 16 on host 0, and `fault`.
fn simulator<'n>(net: &'n Network, mode: SharingMode, fault: FaultEvent) -> SimulatorBuilder<'n> {
    Simulator::builder(net)
        .programs(programs())
        .placement((0..RANKS).chain([0]).collect())
        .sharing(mode)
        .fault_schedule(&[fault])
}

/// What a complete run of the configuration ends in: rank 16 alone
/// blocked after the fault struck.
fn is_the_final_stall(e: &SimError) -> bool {
    matches!(e, SimError::Stalled { blocked_ranks, .. }
        if blocked_ranks.len() == 1 && blocked_ranks[0].rank == RANKS)
}

/// A fresh scratch directory under the system temp dir, removed with
/// everything in it when the guard drops (a failing case included).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("orp-sim-ckpt-fuzz-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }

    /// The checkpoint file in this directory.
    fn checkpoint(&self) -> PathBuf {
        self.0.join("sim.orp")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The checkpoint payload saved halfway through the run under `mode`,
/// and the fault of the run: a link out of switch 0 dies at nine tenths
/// of IS's makespan, after the save, so that every resume re-routes
/// whatever flows it restored.
fn base_payload(mode: SharingMode) -> (Vec<u8>, FaultEvent) {
    let net = network();
    let dir = TempDir::new(&format!("base-{}", mode.name().replace(' ', "-")));
    let path = dir.checkpoint();
    let bench = Benchmark::Is;
    let healthy = Simulator::builder(&net)
        .programs(bench.build(RANKS, bench.paper_class(), 1))
        .sharing(mode)
        .run()
        .expect("IS runs");
    let g = random_general(RANKS, 4, 8, 3).expect("feasible");
    let fault = FaultEvent {
        time: 0.9 * healthy.time,
        fault: NetFault::Link(0, g.neighbors(0)[0]),
    };
    let saved = simulator(&net, mode, fault)
        .checkpoint(&path)
        .checkpoint_every(healthy.events / 2 + 1)
        .run();
    assert!(is_the_final_stall(saved.as_ref().unwrap_err()), "{saved:?}");
    let payload = ckpt::read_checkpoint(&path, ckpt::KIND_SIM).expect("the save reads");
    assert_eq!(header(&payload)[6], 0, "the fault struck before the save");
    // mid-all-to-all: at least half the ranks have a message in flight
    let (_, flows, _) = sections(&payload)[0];
    let live = u64::from_le_bytes(payload[flows + 8..flows + 16].try_into().unwrap());
    assert!(
        live >= u64::from(RANKS / 2),
        "{live} flows in flight at the save"
    );
    let clean = simulator(&net, mode, fault).resume_from(&path).run();
    assert!(is_the_final_stall(clean.as_ref().unwrap_err()), "{clean:?}");
    (payload, fault)
}

/// The clock, totals, counters and cursor of a simulator checkpoint
/// payload as raw words (`faults_struck` is the seventh).
fn header(payload: &[u8]) -> [u64; 10] {
    let mut dec = Decoder::new(payload);
    header_words(&mut dec)
}

/// Reads the payload's configuration echo and those ten words.
fn header_words(dec: &mut Decoder<'_>) -> [u64; 10] {
    dec.get_u32().unwrap(); // configuration CRC
    dec.get_u32().unwrap(); // ranks
    dec.get_bytes().unwrap(); // fault schedule
    [(); 10].map(|()| dec.get_u64().unwrap())
}

/// Byte ranges `(length prefix, start, end)` of the flow, queue and
/// model sections inside a simulator checkpoint payload.
fn sections(payload: &[u8]) -> [(usize, usize, usize); 3] {
    let mut dec = Decoder::new(payload);
    let at = |d: &Decoder<'_>| payload.len() - d.remaining();
    header_words(&mut dec);
    dec.get_bytes().unwrap(); // dead links
    dec.get_bytes().unwrap(); // dead hosts
    dec.get_bytes().unwrap(); // ranks
    let mut next = || {
        let prefix = at(&dec);
        let len = dec.get_bytes().unwrap().len();
        let end = at(&dec);
        (prefix, end - len, end)
    };
    let flows = next();
    let queue = next();
    let model = next();
    [flows, queue, model]
}

/// Applies one random mutation to `section`, describing it.
fn mutate(section: &mut Vec<u8>, rng: &mut ChaCha8Rng) -> String {
    if section.is_empty() {
        return "empty section".into();
    }
    match rng.gen_range(0u32..4) {
        0 => {
            let flips = rng.gen_range(1usize..8);
            for _ in 0..flips {
                let at = rng.gen_range(0..section.len());
                section[at] ^= 1 << rng.gen_range(0u32..8);
            }
            format!("{flips} bit flips")
        }
        1 => {
            let n = rng.gen_range(1usize..5);
            let mut edits = Vec::new();
            for _ in 0..n {
                let at = rng.gen_range(0..section.len());
                section[at] = [0x00, 0xFF, rng.gen_range(0u8..=255)][rng.gen_range(0usize..3)];
                edits.push((at, section[at]));
            }
            format!("bytes overwritten {edits:?}")
        }
        2 => {
            let at = rng.gen_range(0..section.len());
            section.truncate(at);
            format!("truncated at {at}")
        }
        _ => {
            // a small little-endian u64 is a length field or a count
            let small: Vec<usize> = (0..section.len().saturating_sub(7))
                .filter(|&i| {
                    let v = u64::from_le_bytes(section[i..i + 8].try_into().unwrap());
                    (1..=1 << 16).contains(&v)
                })
                .collect();
            if small.is_empty() {
                return "no small integer".into();
            }
            let at = small[rng.gen_range(0..small.len())];
            let old = u64::from_le_bytes(section[at..at + 8].try_into().unwrap());
            let new =
                [u64::MAX, 1 << 40, 1 << 32, old + 1, old * 1000 + 7][rng.gen_range(0usize..5)];
            section[at..at + 8].copy_from_slice(&new.to_le_bytes());
            format!("integer at {at} inflated {old} -> {new}")
        }
    }
}

/// `payload` with the section at `range` replaced by `section`.
fn splice(payload: &[u8], (prefix, _, end): (usize, usize, usize), section: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_bytes(section);
    [&payload[..prefix], &enc.into_bytes(), &payload[end..]].concat()
}

/// No single allocation of a resume may exceed this: far above every
/// table the configuration can need (a few hundred flows and events, a
/// few dozen links), far below what an unchecked length would ask for.
const ALLOCATION_BOUND: usize = 1 << 22;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damaged_sections_resume_or_fail_cleanly(
        approx in any::<bool>(),
        which in 0usize..3,
        seed in any::<u64>(),
        rounds in 1usize..4,
    ) {
        static BASES: OnceLock<[(Vec<u8>, FaultEvent); 2]> = OnceLock::new();
        let bases = BASES.get_or_init(|| {
            [SharingMode::ExactMaxMin, SharingMode::ApproxFair].map(base_payload)
        });
        let mode = if approx { SharingMode::ApproxFair } else { SharingMode::ExactMaxMin };
        let (payload, fault) = &bases[approx as usize];
        let range = sections(payload)[which];
        let mut section = payload[range.1..range.2].to_vec();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let what: Vec<String> = (0..rounds).map(|_| mutate(&mut section, &mut rng)).collect();
        let dir = TempDir::new(&format!("case-{seed:x}"));
        let path = dir.checkpoint();
        ckpt::write_checkpoint(&path, ckpt::KIND_SIM, &splice(payload, range, &section))
            .expect("write the damaged checkpoint");
        let net = network();
        LARGEST.store(0, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            simulator(&net, mode, *fault).resume_from(&path).run()
        }));
        let largest = LARGEST.load(Ordering::Relaxed);
        let section_name = ["flow", "queue", "model"][which];
        let case = format!("{} {section_name} section, {what:?}", mode.name());
        prop_assert!(outcome.is_ok(), "{case}: the resume panicked");
        prop_assert!(
            largest <= ALLOCATION_BOUND,
            "{case}: one allocation of {largest} bytes"
        );
    }
}
