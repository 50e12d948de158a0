//! FIB micro-benchmarks: LPM trie operations and the RFC 1812
//! forwarding pipeline that carries the benchmark's cross-traffic.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use std::net::Ipv4Addr;

use bgpbench_fib::{CompressedTrie, Fib, Forwarder, Ipv4Header, NextHop};
use bgpbench_speaker::TableGenerator;

fn loaded_fib(prefixes: usize) -> Fib {
    let table = TableGenerator::new(3).generate(prefixes);
    let mut fib = Fib::new();
    for (i, prefix) in table.iter().enumerate() {
        fib.insert(
            *prefix,
            NextHop::new(Ipv4Addr::new(10, 0, (i % 250) as u8, 1), (i % 4) as u8),
        );
    }
    fib
}

fn bench_trie_insert(c: &mut Criterion) {
    let table = TableGenerator::new(3).generate(10_000);
    let mut group = c.benchmark_group("fib/insert");
    group.throughput(Throughput::Elements(table.len() as u64));
    group.bench_function("10k_prefixes", |b| {
        b.iter_batched(
            CompressedTrie::new,
            |mut trie| {
                for (i, prefix) in table.iter().enumerate() {
                    trie.insert(*prefix, i);
                }
                black_box(trie.len())
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_lpm_lookup(c: &mut Criterion) {
    let fib = loaded_fib(10_000);
    // Destinations inside the table (hits) and random (mixed).
    let hits: Vec<Ipv4Addr> = fib
        .iter()
        .take(1000)
        .map(|(prefix, _)| prefix.network())
        .collect();
    let mut group = c.benchmark_group("fib/lookup");
    group.throughput(Throughput::Elements(hits.len() as u64));
    group.bench_function("lpm_10k_table", |b| {
        b.iter(|| {
            for dst in &hits {
                black_box(fib.lookup(*dst));
            }
        })
    });
    group.finish();
}

fn bench_forwarding_pipeline(c: &mut Criterion) {
    let fib = loaded_fib(10_000);
    let destinations: Vec<Ipv4Addr> = fib
        .iter()
        .take(1000)
        .map(|(prefix, _)| prefix.network())
        .collect();
    let packets: Vec<[u8; 20]> = destinations
        .iter()
        .map(|&dst| Ipv4Header::new(Ipv4Addr::new(198, 51, 100, 1), dst, 64, 1480).encode())
        .collect();
    let mut forwarder = Forwarder::new(fib);
    let mut group = c.benchmark_group("fib/forward");
    group.throughput(Throughput::Elements(packets.len() as u64));
    group.bench_function("rfc1812_pipeline", |b| {
        b.iter(|| {
            for packet in &packets {
                black_box(forwarder.forward(packet));
            }
        })
    });
    group.finish();
}

/// Route churn on a loaded table: each of 1 000 prefixes removed and
/// installed again, the replace/withdraw path of a flapping peer.
fn bench_trie_churn(c: &mut Criterion) {
    let table = TableGenerator::new(3).generate(10_000);
    let trie: CompressedTrie<u32> = table
        .iter()
        .enumerate()
        .map(|(i, p)| (*p, i as u32))
        .collect();
    let mut group = c.benchmark_group("fib/churn");
    group.throughput(Throughput::Elements(1000));
    group.bench_function("remove_insert_10k_table", |b| {
        b.iter_batched(
            || trie.clone(),
            |mut trie| {
                for prefix in table.iter().take(1000) {
                    trie.remove(prefix);
                    trie.insert(*prefix, 0);
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_trie_insert, bench_lpm_lookup, bench_forwarding_pipeline, bench_trie_churn
}
criterion_main!(benches);
