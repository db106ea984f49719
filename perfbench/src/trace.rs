//! The traced run's instruments: an in-memory span recorder and decorator
//! components that implement the public `Channel` / `Scheduler` /
//! `Sender` / `Receiver` traits by delegating every method to a wrapped
//! component, recording a span and a count around the calls that do a
//! layer's work.
//!
//! A span has a name, a start, an end and a parent. Every span opened while
//! one cell or session replays carries that item's id. All spans feed
//! per-name aggregates (calls, total and self time); the spans of a bounded
//! sample of items are also kept as rows and written out when the run ends.
//! Self time is a span's duration minus the durations of its children.

use std::cell::RefCell;
use std::fmt;
use std::io::Write;
use std::rc::Rc;
use std::time::{Duration, Instant};
use stp_channel::{
    Channel, ChannelError, ChannelKind, ChannelSpec, Scheduler, SchedulerSpec, StepDecision,
};
use stp_core::alphabet::{Alphabet, RMsg, SMsg};
use stp_core::data::DataSeq;
use stp_core::event::{MsgId, Step};
use stp_core::proto::{Receiver, ReceiverEvent, ReceiverOutput, Sender, SenderEvent, SenderOutput};
use stp_protocols::FamilySpec;

/// Span rows kept in memory per run; later items still feed the aggregates.
const KEPT_SPANS: usize = 200_000;
const NO_PARENT: u32 = u32::MAX;

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Direct children opened inside spans of this name.
    pub children: u64,
}

#[derive(Debug, Clone, Copy)]
struct Row {
    id: u64,
    name: u16,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Open {
    name: u16,
    start: u64,
    child: u64,
    children: u64,
    row: u32,
}

/// The span clock in ticks: the time-stamp counter on x86_64, where it
/// costs about 19 ns a read against 32 ns for `Instant::now` on the
/// reference host (a KVM guest with an invariant TSC).
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` has no preconditions on x86_64; it only reads the
    // time-stamp counter.
    unsafe { std::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds per tick, measured against `Instant` over 20 ms.
fn ns_per_tick() -> f64 {
    let (t0, k0) = (Instant::now(), ticks());
    while t0.elapsed() < Duration::from_millis(20) {
        std::hint::spin_loop();
    }
    let (t1, k1) = (Instant::now(), ticks());
    (t1 - t0).as_nanos() as f64 / (k1 - k0).max(1) as f64
}

/// What the instrument costs per decorated call, measured at run time.
#[derive(Debug, Clone, Copy)]
pub struct SpanCost {
    /// Instrument time a decorated call records in its own span.
    pub inside_ns: f64,
    /// Instrument time a decorated call adds to its caller.
    pub total_ns: f64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: u64,
    ns_per_tick: f64,
    names: Vec<String>,
    /// Totals in ticks; `agg` and `aggs` convert to nanoseconds.
    aggs: Vec<Agg>,
    stack: Vec<Open>,
    rows: Vec<Row>,
    item: u64,
    keep: bool,
}

/// The recorder shared by every decorator of one replay thread.
pub type Shared = Rc<RefCell<Recorder>>;

impl Recorder {
    pub fn shared() -> Shared {
        Rc::new(RefCell::new(Recorder {
            ns_per_tick: ns_per_tick(),
            epoch: ticks(),
            names: Vec::new(),
            aggs: Vec::new(),
            stack: Vec::new(),
            rows: Vec::new(),
            item: 0,
            keep: false,
        }))
    }

    /// Interns a span name.
    pub fn name(&mut self, name: &str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u16;
        }
        self.names.push(name.to_string());
        self.aggs.push(Agg::default());
        (self.names.len() - 1) as u16
    }

    /// Zeroes every aggregate, keeping the names.
    pub fn clear_totals(&mut self) {
        self.aggs.fill(Agg::default());
    }

    /// Starts a new item (cell or session): its spans share `id`, and are
    /// kept as rows when `keep` is set and the row budget allows.
    pub fn begin_item(&mut self, id: u64, keep: bool) {
        self.item = id;
        self.keep = keep && self.rows.len() < KEPT_SPANS;
    }

    #[inline]
    pub fn enter(&mut self, name: u16) {
        let row = if self.keep {
            let parent = self.stack.last().map_or(NO_PARENT, |o| o.row);
            self.rows.push(Row {
                id: self.item,
                name,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            (self.rows.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Open {
            name,
            start: ticks(),
            child: 0,
            children: 0,
            row,
        });
    }

    #[inline]
    pub fn exit(&mut self) {
        let end = ticks();
        let open = self.stack.pop().expect("exit matches an enter");
        let dur = end.saturating_sub(open.start);
        let agg = &mut self.aggs[open.name as usize];
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child);
        agg.children += open.children;
        if let Some(parent) = self.stack.last_mut() {
            parent.child += dur;
            parent.children += 1;
        }
        if open.row != NO_PARENT {
            let (start_ns, end_ns) = (
                self.ns(open.start.saturating_sub(self.epoch)),
                self.ns(end.saturating_sub(self.epoch)),
            );
            let row = &mut self.rows[open.row as usize];
            row.start_ns = start_ns;
            row.end_ns = end_ns;
        }
    }

    fn ns(&self, ticks: u64) -> u64 {
        (ticks as f64 * self.ns_per_tick) as u64
    }

    /// Aggregates are kept in ticks; this converts one to nanoseconds.
    fn in_ns(&self, a: Agg) -> Agg {
        Agg {
            total_ns: self.ns(a.total_ns),
            self_ns: self.ns(a.self_ns),
            ..a
        }
    }

    /// The aggregate of a span name (zero when never opened).
    pub fn agg(&self, name: &str) -> Agg {
        self.names
            .iter()
            .position(|n| n == name)
            .map_or_else(Agg::default, |i| self.in_ns(self.aggs[i]))
    }

    /// Every name with its aggregate.
    pub fn aggs(&self) -> impl Iterator<Item = (&str, Agg)> + '_ {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.aggs.iter().map(|&a| self.in_ns(a)))
    }

    pub fn kept_rows(&self) -> usize {
        self.rows.len()
    }

    /// Writes the kept span rows as JSON lines.
    pub fn write_rows(&self, out: &mut impl Write) -> std::io::Result<()> {
        for r in &self.rows {
            let parent = if r.parent == NO_PARENT {
                "null".to_string()
            } else {
                r.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.id, self.names[r.name as usize], parent, r.start_ns, r.end_ns
            )?;
        }
        Ok(())
    }
}

/// Runs `f` inside a span named `name`.
#[inline]
pub fn span<R>(rec: &Shared, name: u16, f: impl FnOnce() -> R) -> R {
    rec.borrow_mut().enter(name);
    let r = f();
    rec.borrow_mut().exit();
    r
}

/// Measures what the instrument costs on this host, through the same path
/// the replays take: an empty dup channel's `deliverable_to_r` called
/// through `&dyn Channel`, bare and decorated. `inside_ns` is how much
/// longer the decorated call records than the bare call takes; `total_ns`
/// is how much longer the decorated call takes than the bare one. Sampled
/// once per traced cycle, so the samples see the same host speed bands as
/// the replays they correct.
pub struct Calibration {
    rec: Shared,
    bare: Box<dyn Channel>,
    decorated: Box<dyn Channel>,
    inside: Vec<f64>,
    total: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        let rec = Recorder::shared();
        let decorated = TracedChannel::wrap(ChannelSpec::Dup.build(), "calibration", &rec);
        Calibration {
            rec,
            bare: ChannelSpec::Dup.build(),
            decorated,
            inside: Vec::new(),
            total: Vec::new(),
        }
    }

    /// Times five batches of bare and decorated calls.
    pub fn sample(&mut self) {
        const PER_BATCH: u32 = 20_000;
        let time = |chan: &dyn Channel| {
            let t = Instant::now();
            for _ in 0..PER_BATCH {
                std::hint::black_box(std::hint::black_box(chan).deliverable_to_r());
            }
            t.elapsed().as_nanos() as f64 / f64::from(PER_BATCH)
        };
        for _ in 0..5 {
            let before = self
                .rec
                .borrow()
                .agg("channel.calibration.deliverable")
                .total_ns;
            let with = time(&*self.decorated);
            let after = self
                .rec
                .borrow()
                .agg("channel.calibration.deliverable")
                .total_ns;
            let bare = time(&*self.bare);
            let recorded = (after - before) as f64 / f64::from(PER_BATCH);
            self.total.push(with - bare);
            self.inside.push((recorded - bare).max(0.0));
        }
    }

    /// Medians over every sample taken.
    pub fn cost(&mut self) -> SpanCost {
        SpanCost {
            inside_ns: crate::stats::median(&mut self.inside),
            total_ns: crate::stats::median(&mut self.total),
        }
    }
}

impl SpanCost {
    /// A name's self time with the instrument's own cost taken out: each
    /// span's recorded duration holds `inside_ns` of timer cost, and each
    /// direct child adds `total_ns - inside_ns` to its parent's self time.
    pub fn corrected_self_ns(&self, agg: Agg) -> f64 {
        let ovh = agg.calls as f64 * self.inside_ns
            + agg.children as f64 * (self.total_ns - self.inside_ns);
        (agg.self_ns as f64 - ovh).max(0.0)
    }
}

pub fn channel_label(spec: &ChannelSpec) -> &'static str {
    match spec {
        ChannelSpec::Dup => "dup",
        ChannelSpec::Del => "del",
        ChannelSpec::Fifo => "fifo",
        ChannelSpec::LossyFifo => "lossy_fifo",
        ChannelSpec::Perfect => "perfect",
        ChannelSpec::Timed { .. } => "timed",
    }
}

pub fn scheduler_label(spec: &SchedulerSpec) -> &'static str {
    match spec {
        SchedulerSpec::DupStorm { .. } => "dup_storm",
        SchedulerSpec::Reorder => "reorder",
        SchedulerSpec::Random { .. } => "random",
        _ => "other",
    }
}

pub fn family_label(spec: &FamilySpec) -> &'static str {
    match spec {
        FamilySpec::Tight { .. } => "tight",
        FamilySpec::Abp { .. } => "abp",
        _ => "other",
    }
}

/// A channel that records `send`, `deliver`, `deliverable` and `delete`
/// spans under `channel.<kind>.*` and delegates everything.
#[derive(Clone)]
pub struct TracedChannel {
    inner: Box<dyn Channel>,
    rec: Shared,
    send: u16,
    deliver: u16,
    deliverable: u16,
    delete: u16,
}

impl TracedChannel {
    pub fn wrap(inner: Box<dyn Channel>, kind: &str, rec: &Shared) -> Box<dyn Channel> {
        let mut r = rec.borrow_mut();
        Box::new(TracedChannel {
            send: r.name(&format!("channel.{kind}.send")),
            deliver: r.name(&format!("channel.{kind}.deliver")),
            deliverable: r.name(&format!("channel.{kind}.deliverable")),
            delete: r.name(&format!("channel.{kind}.delete")),
            inner,
            rec: Rc::clone(rec),
        })
    }
}

impl fmt::Debug for TracedChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl Channel for TracedChannel {
    fn kind(&self) -> ChannelKind {
        self.inner.kind()
    }
    fn send_s(&mut self, msg: SMsg) {
        span(&self.rec, self.send, || self.inner.send_s(msg))
    }
    fn send_r(&mut self, msg: RMsg) {
        span(&self.rec, self.send, || self.inner.send_r(msg))
    }
    fn deliverable_to_r(&self) -> &[SMsg] {
        span(&self.rec, self.deliverable, || {
            self.inner.deliverable_to_r()
        })
    }
    fn deliverable_to_s(&self) -> &[RMsg] {
        span(&self.rec, self.deliverable, || {
            self.inner.deliverable_to_s()
        })
    }
    fn deliver_to_r(&mut self, msg: SMsg) -> Result<(), ChannelError> {
        span(&self.rec, self.deliver, || self.inner.deliver_to_r(msg))
    }
    fn deliver_to_s(&mut self, msg: RMsg) -> Result<(), ChannelError> {
        span(&self.rec, self.deliver, || self.inner.deliver_to_s(msg))
    }
    fn can_delete(&self) -> bool {
        self.inner.can_delete()
    }
    fn can_expire(&self) -> bool {
        self.inner.can_expire()
    }
    fn delete_to_r(&mut self, msg: SMsg) -> Result<(), ChannelError> {
        span(&self.rec, self.delete, || self.inner.delete_to_r(msg))
    }
    fn delete_to_s(&mut self, msg: RMsg) -> Result<(), ChannelError> {
        span(&self.rec, self.delete, || self.inner.delete_to_s(msg))
    }
    fn pending_to_r(&self) -> u64 {
        self.inner.pending_to_r()
    }
    fn pending_to_s(&self) -> u64 {
        self.inner.pending_to_s()
    }
    fn tick(&mut self) {
        self.inner.tick()
    }
    fn take_expirations(&mut self, to_r: &mut Vec<SMsg>, to_s: &mut Vec<RMsg>) {
        self.inner.take_expirations(to_r, to_s)
    }
    fn set_provenance(&mut self, enabled: bool) {
        self.inner.set_provenance(enabled)
    }
    fn provenance_enabled(&self) -> bool {
        self.inner.provenance_enabled()
    }
    fn note_send_s(&mut self, msg: SMsg, id: MsgId) -> MsgId {
        self.inner.note_send_s(msg, id)
    }
    fn note_send_r(&mut self, msg: RMsg, id: MsgId) -> MsgId {
        self.inner.note_send_r(msg, id)
    }
    fn take_delivered_id_to_r(&mut self) -> Option<MsgId> {
        self.inner.take_delivered_id_to_r()
    }
    fn take_delivered_id_to_s(&mut self) -> Option<MsgId> {
        self.inner.take_delivered_id_to_s()
    }
    fn take_deleted_id_to_r(&mut self) -> Option<MsgId> {
        self.inner.take_deleted_id_to_r()
    }
    fn take_deleted_id_to_s(&mut self) -> Option<MsgId> {
        self.inner.take_deleted_id_to_s()
    }
    fn take_expiration_ids(
        &mut self,
        to_r: &mut Vec<Option<MsgId>>,
        to_s: &mut Vec<Option<MsgId>>,
    ) {
        self.inner.take_expiration_ids(to_r, to_s)
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn state_key(&self) -> String {
        self.inner.state_key()
    }
    fn box_clone(&self) -> Box<dyn Channel> {
        Box::new(self.clone())
    }
}

/// A scheduler that records `sched.<policy>.decide` spans.
#[derive(Clone)]
pub struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    rec: Shared,
    decide: u16,
}

impl TracedScheduler {
    pub fn wrap(inner: Box<dyn Scheduler>, policy: &str, rec: &Shared) -> Box<dyn Scheduler> {
        let decide = rec.borrow_mut().name(&format!("sched.{policy}.decide"));
        Box::new(TracedScheduler {
            inner,
            rec: Rc::clone(rec),
            decide,
        })
    }
}

impl fmt::Debug for TracedScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl Scheduler for TracedScheduler {
    fn decide(&mut self, step: Step, chan: &dyn Channel) -> StepDecision {
        span(&self.rec, self.decide, || self.inner.decide(step, chan))
    }
    fn note_progress(&mut self, step: Step, written: usize) {
        self.inner.note_progress(step, written)
    }
    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed)
    }
    fn box_clone(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }
}

/// A sender that records `proto.<family>.sender` spans around `on_event`.
#[derive(Clone)]
pub struct TracedSender {
    inner: Box<dyn Sender>,
    rec: Shared,
    step: u16,
}

impl TracedSender {
    pub fn wrap(inner: Box<dyn Sender>, family: &str, rec: &Shared) -> Box<dyn Sender> {
        let step = rec.borrow_mut().name(&format!("proto.{family}.sender"));
        Box::new(TracedSender {
            inner,
            rec: Rc::clone(rec),
            step,
        })
    }
}

impl fmt::Debug for TracedSender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl Sender for TracedSender {
    fn alphabet(&self) -> Alphabet {
        self.inner.alphabet()
    }
    fn on_event(&mut self, ev: SenderEvent) -> SenderOutput {
        span(&self.rec, self.step, || self.inner.on_event(ev))
    }
    fn reads(&self) -> usize {
        self.inner.reads()
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn scramble(&mut self, draw: u64) -> bool {
        self.inner.scramble(draw)
    }
    fn desync(&mut self, draw: u64) -> bool {
        self.inner.desync(draw)
    }
    fn reset(&mut self, input: &DataSeq) {
        self.inner.reset(input)
    }
    fn box_clone(&self) -> Box<dyn Sender> {
        Box::new(self.clone())
    }
    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
}

/// A receiver that records `proto.<family>.receiver` spans around
/// `on_event`.
#[derive(Clone)]
pub struct TracedReceiver {
    inner: Box<dyn Receiver>,
    rec: Shared,
    step: u16,
}

impl TracedReceiver {
    pub fn wrap(inner: Box<dyn Receiver>, family: &str, rec: &Shared) -> Box<dyn Receiver> {
        let step = rec.borrow_mut().name(&format!("proto.{family}.receiver"));
        Box::new(TracedReceiver {
            inner,
            rec: Rc::clone(rec),
            step,
        })
    }
}

impl fmt::Debug for TracedReceiver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl Receiver for TracedReceiver {
    fn alphabet(&self) -> Alphabet {
        self.inner.alphabet()
    }
    fn on_event(&mut self, ev: ReceiverEvent) -> ReceiverOutput {
        span(&self.rec, self.step, || self.inner.on_event(ev))
    }
    fn scramble(&mut self, draw: u64) -> bool {
        self.inner.scramble(draw)
    }
    fn desync(&mut self, draw: u64) -> bool {
        self.inner.desync(draw)
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn box_clone(&self) -> Box<dyn Receiver> {
        Box::new(self.clone())
    }
    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
}
