//! Criterion bench for E1: full tight-dup sweeps at increasing alphabet
//! sizes under a duplication storm.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stp_channel::{ChannelSpec, SchedulerSpec};
use stp_core::event::TraceMode;
use stp_protocols::{ResendPolicy, TightFamily};
use stp_sim::{SweepEngine, SweepSpec};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e1_dup_achievability");
    for m in [2u16, 3, 4] {
        g.bench_with_input(BenchmarkId::new("sweep_alpha_m", m), &m, |b, &m| {
            let family = TightFamily::new(m, ResendPolicy::Once);
            let spec = SweepSpec::new(ChannelSpec::Dup, SchedulerSpec::DupStorm { p_deliver: 0.9 })
                .max_steps(4_000)
                .seeds([0])
                .trace_mode(TraceMode::Off)
                .threads(1);
            let engine = SweepEngine::new(spec);
            b.iter(|| {
                let out = engine.run(&family);
                assert!(out.all_complete());
                out.len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
