//! Replays cells and sessions through worlds assembled with
//! `World::builder`, pooled one per recipe and reset between items the way
//! the sweep engine pools its worlds. With a recorder attached, every
//! component is wrapped in its decorator and each item runs inside one
//! `world.cell` span whose self time is the step kernel's.

use crate::trace::{
    channel_label, family_label, scheduler_label, span, Shared, TracedChannel, TracedReceiver,
    TracedScheduler, TracedSender,
};
use stp_channel::{ChannelSpec, SchedulerSpec};
use stp_core::data::DataSeq;
use stp_core::event::{Step, TraceMode};
use stp_protocols::{FamilySpec, ProtocolFamily};
use stp_sim::{MetricsProbe, RunStats, World};

/// One (family, channel, scheduler) triple.
#[derive(Debug)]
pub struct Recipe {
    pub family: Box<dyn ProtocolFamily>,
    pub family_label: &'static str,
    pub channel: ChannelSpec,
    pub scheduler: SchedulerSpec,
}

impl Recipe {
    pub fn new(family: &FamilySpec, channel: &ChannelSpec, scheduler: &SchedulerSpec) -> Recipe {
        Recipe {
            family: family.build(),
            family_label: family_label(family),
            channel: channel.clone(),
            scheduler: scheduler.clone(),
        }
    }
}

/// Pooled worlds over a fixed recipe list.
#[derive(Debug)]
pub struct Pool {
    recipes: Vec<Recipe>,
    worlds: Vec<Option<World>>,
    /// Attach a `MetricsProbe`, as the sweep engine does for E1.
    probe: bool,
    rec: Option<(Shared, u16)>,
}

impl Pool {
    pub fn new(recipes: Vec<Recipe>, probe: bool, rec: Option<&Shared>) -> Pool {
        let worlds = recipes.iter().map(|_| None).collect();
        let rec = rec.map(|r| {
            let cell = r.borrow_mut().name("world.cell");
            (r.clone(), cell)
        });
        Pool {
            recipes,
            worlds,
            probe,
            rec,
        }
    }

    fn build(&self, recipe: usize, x: &DataSeq, seed: u64) -> World {
        let r = &self.recipes[recipe];
        let mut sender = r.family.sender_for(x);
        let mut receiver = r.family.receiver();
        let mut channel = r.channel.build();
        let mut scheduler = r.scheduler.build(seed);
        if let Some((rec, _)) = &self.rec {
            sender = TracedSender::wrap(sender, r.family_label, rec);
            receiver = TracedReceiver::wrap(receiver, r.family_label, rec);
            channel = TracedChannel::wrap(channel, channel_label(&r.channel), rec);
            scheduler = TracedScheduler::wrap(scheduler, scheduler_label(&r.scheduler), rec);
        }
        let mut builder = World::builder(x.clone())
            .sender(sender)
            .receiver(receiver)
            .channel(channel)
            .scheduler(scheduler)
            .mode(TraceMode::Off);
        if self.probe {
            builder = builder.probe(Box::new(MetricsProbe::new()));
        }
        builder.build().expect("every component supplied")
    }

    /// Runs input `x` under `seed` on recipe `recipe` until it completes or
    /// `cap` steps have run. `item` names the span id and whether its
    /// spans are kept as rows.
    pub fn run(
        &mut self,
        recipe: usize,
        x: &DataSeq,
        seed: u64,
        cap: Step,
        item: (u64, bool),
    ) -> RunStats {
        let fresh = self.worlds[recipe].is_none();
        if fresh {
            self.worlds[recipe] = Some(self.build(recipe, x, seed));
        }
        match &self.rec {
            None => self.step(recipe, x, seed, cap, !fresh),
            Some((rec, cell)) => {
                let (rec, cell) = (rec.clone(), *cell);
                rec.borrow_mut().begin_item(item.0, item.1);
                span(&rec, cell, || self.step(recipe, x, seed, cap, !fresh))
            }
        }
    }

    fn step(&mut self, recipe: usize, x: &DataSeq, seed: u64, cap: Step, reset: bool) -> RunStats {
        let world = self.worlds[recipe].as_mut().expect("world built");
        if reset {
            world.reset(x, seed);
        }
        world.run_until(cap, World::is_complete);
        match world.probe_of::<MetricsProbe>() {
            Some(p) => p.stats(),
            None => world.stats(),
        }
    }
}
