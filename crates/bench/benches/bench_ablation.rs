//! Ablation micro-benchmarks: PCST prize policies and one-shot ST.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use xsum_bench::ctx::{Baseline, Ctx, CtxConfig};
use xsum_bench::experiments::user_centric_inputs;
use xsum_core::{
    pcst_summary_with_policy, steiner_summary, PcstConfig, PrizePolicy, SteinerConfig,
};

fn bench(c: &mut Criterion) {
    let ctx = Ctx::build(CtxConfig {
        scale: 0.02,
        users_per_gender: 8,
        items_per_extreme: 5,
        ..CtxConfig::default()
    });
    let g = &ctx.ds.kg.graph;
    let inputs = user_centric_inputs(&ctx, Baseline::Pgpr, 10);
    let input = inputs.first().expect("one input").clone();

    let mut group = c.benchmark_group("ablation");
    group.sample_size(20);
    group.bench_function("pcst_prize_uniform", |b| {
        b.iter_batched(
            || input.clone(),
            |i| pcst_summary_with_policy(g, &i, &PcstConfig::default(), PrizePolicy::Uniform),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("pcst_prize_path_frequency", |b| {
        b.iter_batched(
            || input.clone(),
            |i| {
                pcst_summary_with_policy(
                    g,
                    &i,
                    &PcstConfig::default(),
                    PrizePolicy::PathFrequency { weight: 1.0 },
                )
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("st_batch_k10", |b| {
        b.iter_batched(
            || input.clone(),
            |i| steiner_summary(g, &i, &SteinerConfig::default()),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
