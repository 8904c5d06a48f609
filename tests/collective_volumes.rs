//! Closed-form volume accounting for every collective algorithm: the
//! simulator reports total bytes moved, which must match the textbook
//! cost model of each algorithm exactly. Any drift in the collective
//! implementations shows up here before it can bias the NPB panels.

use orp::core::construct::random_general;
use orp::netsim::mpi::ProgramBuilder;
use orp::netsim::network::Network;
use orp::netsim::Simulator;

fn net(n: u32) -> Network {
    let g = random_general(n, (n / 4).max(2), 10, 5).unwrap();
    Network::builder(&g).build()
}

fn run(n: u32, f: impl Fn(&mut ProgramBuilder)) -> (u64, f64) {
    let net = net(n);
    let progs = ProgramBuilder::build(n, f);
    let rep = Simulator::builder(&net).programs(progs).run().unwrap();
    (rep.flows, rep.bytes)
}

#[test]
fn bcast_volume_is_n_minus_1_messages() {
    let bytes = 12345.0;
    for n in [8u32, 16, 32] {
        let (flows, vol) = run(n, |b| b.bcast(0, bytes));
        assert_eq!(flows as u32, n - 1);
        assert!((vol - (n - 1) as f64 * bytes).abs() < 1e-6);
    }
}

#[test]
fn allreduce_volume_recursive_doubling() {
    // power of two: n·log2(n) messages of full size
    let bytes = 1000.0;
    for n in [8u32, 16] {
        let (flows, vol) = run(n, |b| b.allreduce(bytes));
        let rounds = n.trailing_zeros();
        assert_eq!(flows as u32, n * rounds);
        assert!((vol - (n * rounds) as f64 * bytes).abs() < 1e-6);
    }
}

#[test]
fn allgather_ring_volume() {
    // (n-1) rounds × n ranks × block
    let block = 2048.0;
    let n = 12u32;
    let (flows, vol) = run(n, |b| b.allgather(block));
    assert_eq!(flows as u32, n * (n - 1));
    assert!((vol - (n * (n - 1)) as f64 * block).abs() < 1e-6);
}

#[test]
fn alltoall_volume_quadratic() {
    let pair = 512.0;
    for n in [8u32, 12] {
        let (flows, vol) = run(n, |b| b.alltoall(pair));
        assert_eq!(flows as u32, n * (n - 1));
        assert!((vol - (n * (n - 1)) as f64 * pair).abs() < 1e-6);
    }
}

#[test]
fn reduce_scatter_volume_halving() {
    // rounds exchange total/2, total/4, … total/n per rank
    let total = 8192.0;
    let n = 8u32;
    let (flows, vol) = run(n, |b| b.reduce_scatter(total));
    assert_eq!(flows as u32, n * n.trailing_zeros());
    // per-rank: total·(1/2 + 1/4 + 1/8) = total·(1 − 1/n)
    let expect = n as f64 * total * (1.0 - 1.0 / n as f64);
    assert!((vol - expect).abs() < 1e-6, "{vol} vs {expect}");
}

#[test]
fn rabenseifner_is_bandwidth_optimal() {
    // 2·total·(1 − 1/n) per rank, vs log2(n)·total for recursive doubling
    let total = 65536.0;
    let n = 16u32;
    let (_, vol_rab) = run(n, |b| b.allreduce_rabenseifner(total));
    let (_, vol_rd) = run(n, |b| b.allreduce(total));
    let expect_rab = n as f64 * 2.0 * total * (1.0 - 1.0 / n as f64);
    assert!(
        (vol_rab - expect_rab).abs() < 1.0,
        "{vol_rab} vs {expect_rab}"
    );
    // Rabenseifner moves strictly less than recursive doubling for n ≥ 8
    assert!(vol_rab < vol_rd, "{vol_rab} vs {vol_rd}");
}

#[test]
fn scatter_gather_subtree_volumes() {
    // binomial scatter: each edge carries its subtree's blocks; total =
    // block · Σ_over_edges subtree_size = block · (n·log2(n)/2) for
    // powers of two
    let block = 100.0;
    let n = 16u32;
    let (flows, vol) = run(n, |b| b.scatter(0, block));
    assert_eq!(flows as u32, n - 1);
    let expect = block * (n as f64 * (n.trailing_zeros() as f64) / 2.0);
    assert!((vol - expect).abs() < 1e-6, "{vol} vs {expect}");
    let (_, vol_g) = run(n, |b| b.gather(0, block));
    assert!((vol_g - vol).abs() < 1e-6, "gather mirrors scatter");
}

#[test]
fn barrier_volume_is_tokens_only() {
    let n = 16u32;
    let (flows, vol) = run(n, |b| b.barrier());
    assert_eq!(flows as u32, n * n.trailing_zeros());
    assert!(vol < n as f64 * 8.0 * 5.0);
}

#[test]
fn reduce_computes_combines() {
    let net = net(16);
    let progs = ProgramBuilder::build(16, |b| b.reduce(0, 8000.0));
    let rep = Simulator::builder(&net).programs(progs).run().unwrap();
    // 15 combine steps of bytes/8 flops each
    assert!((rep.flops - 15.0 * 1000.0).abs() < 1e-6);
}
