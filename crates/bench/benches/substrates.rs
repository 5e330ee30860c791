//! Microbenchmarks of the substrate crates: cache array, TLB, write
//! buffer, Zipf sampler and trace generation/codec throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vrcache_cache::array::CacheArray;
use vrcache_cache::geometry::{BlockId, CacheGeometry};
use vrcache_cache::replacement::ReplacementPolicy;
use vrcache_cache::write_buffer::WriteBuffer;
use vrcache_mem::addr::{Asid, Ppn, Vpn};
use vrcache_mem::tlb::{Tlb, TlbConfig};
use vrcache_trace::codec;
use vrcache_trace::synth::{generate, WorkloadConfig, Zipf};

fn bench_cache_array(c: &mut Criterion) {
    let geo = CacheGeometry::new(16 * 1024, 16, 2).unwrap();
    let mut group = c.benchmark_group("cache_array");
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
        ReplacementPolicy::TreePlru,
    ] {
        group.bench_function(format!("fill_lookup_{policy:?}"), |b| {
            let mut cache: CacheArray<u64> = CacheArray::new(geo, policy, 7);
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                let block = BlockId::new(rng.gen_range(0..4096));
                if cache.lookup(block).is_none() {
                    cache.fill(block, 0, |_| true);
                }
                black_box(cache.occupancy())
            });
        });
    }
    group.finish();
}

fn bench_tlb(c: &mut Criterion) {
    c.bench_function("tlb_lookup_fill", |b| {
        let mut tlb = Tlb::new(TlbConfig::new(64, 2).unwrap());
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| {
            let vpn = Vpn::new(rng.gen_range(0..256));
            let asid = Asid::new(rng.gen_range(0..4));
            black_box(tlb.translate(asid, vpn, Ppn::new(vpn.raw() + 1000)))
        });
    });
}

fn bench_write_buffer(c: &mut Criterion) {
    c.bench_function("write_buffer_cycle", |b| {
        let mut wb: WriteBuffer<u64> = WriteBuffer::new(4);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            if let Some(e) = wb.push(BlockId::new(i), i, i) {
                black_box(e.payload);
            }
            if i.is_multiple_of(2) {
                black_box(wb.drain_one());
            }
        });
    });
}

fn bench_zipf(c: &mut Criterion) {
    let z = Zipf::new(4096, 0.9).expect("valid zipf parameters");
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("zipf_sample_4096", |b| {
        b.iter(|| black_box(z.sample(&mut rng)));
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    let cfg = WorkloadConfig {
        total_refs: 50_000,
        ..WorkloadConfig::default()
    };
    let mut group = c.benchmark_group("trace");
    group.throughput(Throughput::Elements(cfg.total_refs));
    group.sample_size(10);
    group.bench_function("generate_50k", |b| {
        b.iter(|| black_box(generate(&cfg)));
    });
    let trace = generate(&cfg);
    group.bench_function("encode_50k", |b| {
        b.iter(|| black_box(codec::encode(&trace)));
    });
    let bytes = codec::encode(&trace);
    group.bench_function("decode_50k", |b| {
        b.iter(|| black_box(codec::decode(&bytes).unwrap()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_array,
    bench_tlb,
    bench_write_buffer,
    bench_zipf,
    bench_trace_generation
);
criterion_main!(benches);
