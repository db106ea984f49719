//! A warmed step allocates nothing, and a sweep cell costs a constant
//! number of allocations.
//!
//! Protocol outputs live inline ([`stp_core::Msgs`]) and per-run resets
//! copy into existing buffers, so once a pooled world has grown its
//! buffers to a workload's high-water mark, no step phase touches the
//! heap. The allocation counters are process-wide, so the tests in this
//! binary take turns.

use std::sync::Mutex;
use stp_channel::{ChannelSpec, SchedulerSpec};
use stp_core::event::TraceMode;
use stp_prof::CountingAlloc;
use stp_protocols::{FamilySpec, ProtocolFamily, ResendPolicy, TightFamily};
use stp_sim::{MetricsProbe, PhaseProfiler, SweepEngine, SweepSpec, World};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

const SEEDS: u64 = 8;

/// The E1 adversaries (`stp_bench::e1::adversaries`).
fn e1_adversaries() -> [SchedulerSpec; 3] {
    [
        SchedulerSpec::DupStorm { p_deliver: 0.9 },
        SchedulerSpec::Reorder,
        SchedulerSpec::Random { p_deliver: 0.5 },
    ]
}

/// Runs every claimed input × [`SEEDS`] seeds on one pooled world twice —
/// a warm-up lap, then a lap with every run a period-1 profiling window —
/// and asserts that no phase of the second lap allocated.
fn assert_warm_steps_allocate_nothing(
    label: &str,
    family: &dyn ProtocolFamily,
    channel: &ChannelSpec,
    scheduler: &SchedulerSpec,
    max_steps: u64,
) {
    let claimed = family.claimed_family();
    let first = &claimed.seqs()[0];
    let mut world = World::builder(first.clone())
        .sender(family.sender_for(first))
        .receiver(family.receiver())
        .channel(channel.build())
        .scheduler(scheduler.build(0))
        .mode(TraceMode::Off)
        .probe(Box::new(MetricsProbe::new()))
        .build()
        .expect("every component supplied");
    let mut lap = |prof: Option<&PhaseProfiler>| {
        for x in claimed.iter() {
            for seed in 0..SEEDS {
                world.reset(x, seed);
                let done = match prof {
                    Some(p) => world.run_until_profiled(max_steps, World::is_complete, p),
                    None => world.run_until(max_steps, World::is_complete),
                };
                assert!(done, "{label}: {x:?} seed {seed} did not complete");
            }
        }
    };
    lap(None);
    let prof = PhaseProfiler::new(1);
    lap(Some(&prof));
    // One allocation outside any window proves the counter is installed,
    // so the zeros below are measured, not missing.
    std::hint::black_box(vec![0u8; 64]);
    let report = prof.report("step_allocs", label);
    assert!(report.alloc_metered, "counting allocator not installed");
    for phase in &report.phases {
        assert_eq!(
            phase.allocs, 0,
            "{label}: phase {} allocated {} times ({} bytes)",
            phase.phase, phase.allocs, phase.alloc_bytes
        );
    }
}

#[test]
fn warmed_e1_steps_allocate_nothing() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let family = TightFamily::new(5, ResendPolicy::Once);
    for scheduler in e1_adversaries() {
        let label = format!("tight-5 dup {scheduler:?}");
        assert_warm_steps_allocate_nothing(&label, &family, &ChannelSpec::Dup, &scheduler, 20_000);
    }
}

#[test]
fn warmed_churn_template_steps_allocate_nothing() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The session mix of the churn benchmark and `bench_sessions`.
    let templates = [
        (
            FamilySpec::Tight {
                d: 3,
                policy: ResendPolicy::Once,
            },
            ChannelSpec::Dup,
            SchedulerSpec::DupStorm { p_deliver: 0.9 },
        ),
        (
            FamilySpec::Abp {
                domain: 2,
                max_len: 3,
            },
            ChannelSpec::LossyFifo,
            SchedulerSpec::Random { p_deliver: 0.8 },
        ),
        (
            FamilySpec::Tight {
                d: 4,
                policy: ResendPolicy::EveryTick,
            },
            ChannelSpec::Del,
            SchedulerSpec::Random { p_deliver: 0.7 },
        ),
    ];
    for (family, channel, scheduler) in &templates {
        let label = format!("{family:?} {channel:?} {scheduler:?}");
        assert_warm_steps_allocate_nothing(&label, &*family.build(), channel, scheduler, 2_000);
    }
}

#[test]
fn e1_sweep_cells_cost_at_most_three_allocations() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let family = TightFamily::new(5, ResendPolicy::Once);
    let [first, rest @ ..] = e1_adversaries();
    let mut spec = SweepSpec::new(ChannelSpec::Dup, first)
        .max_steps(20_000)
        .seeds([0])
        .trace_mode(TraceMode::Off)
        .threads(2);
    for scheduler in rest {
        spec = spec.also_scheduler(scheduler);
    }
    let engine = SweepEngine::new(spec);
    // Everything the run allocates, on every thread, lands in the
    // counters between the profiler's creation and its report.
    let prof = PhaseProfiler::new(1);
    let outcome = engine.run(&family);
    let allocs = prof.report("step_allocs", "e1_sweep").allocs_total;
    let cells = outcome.len() as u64;
    assert_eq!(cells, 3 * 326);
    assert!(outcome.all_complete());
    assert!(
        allocs <= 3 * cells,
        "{allocs} allocations for {cells} cells ({:.2} per cell)",
        allocs as f64 / cells as f64
    );
}
