//! A warmed step allocates nothing, and a sweep cell costs a constant
//! number of allocations.
//!
//! Protocol outputs live inline ([`stp_core::Msgs`]) and per-run resets
//! copy into existing buffers, so once a pooled world has grown its
//! buffers to a workload's high-water mark, no step phase touches the
//! heap. Nor does a reset: a seed-major lap keeps its schedulers'
//! keystream tapes, and a lap of new seeds builds none. The allocation
//! counters are process-wide, so the tests in this binary take turns.

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

/// Allocations made by `lap`, resets included, on every thread: the
/// profiler's total over the lap less what an empty lap counts (the
/// profiler's own set-up).
fn allocs_in(label: &str, mut lap: impl FnMut()) -> u64 {
    let idle = PhaseProfiler::new(1)
        .report("step_allocs", label)
        .allocs_total;
    // The profiler's set-up allocates, so a zero below is measured, not
    // missing.
    assert!(idle > 0, "counting allocator not installed");
    let prof = PhaseProfiler::new(1);
    lap();
    prof.report("step_allocs", label).allocs_total - idle
}

/// Runs the `(input, seed)` cells of `laps` on one unobserved pooled
/// world per E1 adversary, resetting it before each cell, and returns the
/// allocations of the last lap.
fn last_lap_allocs(laps: &[Vec<(usize, u64)>]) -> Vec<(SchedulerSpec, u64)> {
    let family = TightFamily::new(5, ResendPolicy::Once);
    let claimed = family.claimed_family();
    let seqs = claimed.seqs();
    e1_adversaries()
        .into_iter()
        .map(|scheduler| {
            let mut world = World::builder(seqs[0].clone())
                .sender(family.sender_for(&seqs[0]))
                .receiver(family.receiver())
                .channel(ChannelSpec::Dup.build())
                .scheduler(scheduler.build(0))
                .mode(TraceMode::Off)
                .build()
                .expect("every component supplied");
            let mut lap = |cells: &[(usize, u64)]| {
                for &(x, seed) in cells {
                    world.reset(&seqs[x], seed);
                    assert!(world.run_until(20_000, World::is_complete));
                }
            };
            let (last, warm) = laps.split_last().expect("at least one lap");
            for cells in warm {
                lap(cells);
            }
            let allocs = allocs_in(&format!("{scheduler:?}"), || lap(last));
            (scheduler, allocs)
        })
        .collect()
}

#[test]
fn a_warmed_seed_major_lap_allocates_nothing() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let inputs = TightFamily::new(5, ResendPolicy::Once).claimed_len();
    // Every input under seed 0, then every input under seed 1, …: each
    // seed's resets after its first replay the scheduler's tape, and each
    // seed change keeps the tape's buffer.
    let lap: Vec<(usize, u64)> = (0..SEEDS)
        .flat_map(|seed| (0..inputs).map(move |x| (x, seed)))
        .collect();
    for (scheduler, allocs) in last_lap_allocs(&[lap.clone(), lap]) {
        assert_eq!(allocs, 0, "{scheduler:?}: a warm seed-major lap allocated");
    }
}

#[test]
fn a_lap_of_new_seeds_builds_no_tape() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let inputs = TightFamily::new(5, ResendPolicy::Once).claimed_len() as u64;
    // Every reset takes a seed no earlier reset used, as a session slot's
    // does. Building a tape would allocate its 8 KiB buffer.
    let lap =
        |from: u64| -> Vec<(usize, u64)> { (0..inputs).map(|x| (x as usize, from + x)).collect() };
    for (scheduler, allocs) in last_lap_allocs(&[lap(1), lap(1 + inputs)]) {
        assert_eq!(allocs, 0, "{scheduler:?}: a lap of new seeds allocated");
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
