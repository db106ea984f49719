//! Parity: the pooled [`SweepEngine`] under [`TraceMode::Full`] must be
//! bit-identical — traces and stats — to the legacy one-world-per-run
//! path (`run_family_member` with freshly boxed components).
//!
//! This is the contract that makes world pooling safe: `World::reset`
//! plus each component's `reset` must be indistinguishable from
//! re-construction. Seeds 0..32 over both the duplicating and the
//! deleting tight protocol exercise every protocol/channel/scheduler
//! reset path the engine relies on.

use stp_protocols::{ProtocolFamily, ResendPolicy, TightFamily};
use stp_sim::prelude::*;

fn assert_engine_matches_legacy(
    family: &dyn ProtocolFamily,
    channel: ChannelSpec,
    scheduler: SchedulerSpec,
    max_steps: u64,
) {
    let seeds: Vec<u64> = (0..32).collect();
    let spec = SweepSpec::new(channel.clone(), scheduler.clone())
        .max_steps(max_steps)
        .seeds(seeds.iter().copied())
        .trace_mode(TraceMode::Full)
        .threads(4);
    let outcome = SweepEngine::new(spec).run(family);

    let mut legacy = Vec::new();
    for x in family.claimed_family().iter() {
        for &seed in &seeds {
            let trace =
                run_family_member(family, x, channel.build(), scheduler.build(seed), max_steps);
            legacy.push((x.clone(), seed, trace));
        }
    }

    assert_eq!(outcome.len(), legacy.len(), "grid sizes differ");
    for (run, (x, seed, trace)) in outcome.runs.iter().zip(&legacy) {
        assert_eq!(&run.input, x);
        assert_eq!(run.seed, *seed);
        let pooled_trace = run.trace.as_ref().expect("Full mode records traces");
        assert_eq!(
            pooled_trace, trace,
            "trace diverged on input {x} seed {seed}"
        );
        assert_eq!(
            run.stats,
            RunStats::of(trace),
            "stats diverged on input {x} seed {seed}"
        );
    }
}

#[test]
fn pooled_engine_matches_legacy_runner_on_tight_dup() {
    let family = TightFamily::new(3, ResendPolicy::Once);
    assert_engine_matches_legacy(
        &family,
        ChannelSpec::Dup,
        SchedulerSpec::DupStorm { p_deliver: 0.9 },
        5_000,
    );
}

#[test]
fn pooled_engine_matches_legacy_runner_on_tight_del() {
    let family = TightFamily::new(2, ResendPolicy::EveryTick);
    assert_engine_matches_legacy(
        &family,
        ChannelSpec::Del,
        SchedulerSpec::DropHeavy {
            p_drop: 0.3,
            p_deliver: 0.6,
        },
        20_000,
    );
}
