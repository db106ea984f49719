//! # stp-knowledge — reasoning about what the receiver knows
//!
//! All of the paper's results "are derived using formal reasoning about
//! knowledge": the receiver *knows* the value of the `i`-th input item at a
//! point `(r, t)` when every point it cannot tell apart from `(r, t)`
//! agrees on that value. This crate makes the definitions executable:
//!
//! * a [`Universe`] is a finite set of recorded runs standing in for the
//!   system's run set `R`;
//! * indistinguishability `(r,t) ~_R (r',t')` is equality of the
//!   receiver's *local histories* under the complete-history
//!   interpretation (our processors observe every tick, so only same-time
//!   points can ever be indistinguishable — the paper itself notes that
//!   `R` may tell points apart "by the time on R's local clock");
//! * `K_R(x_i = d)` is universal agreement over the indistinguishability
//!   class ([`Universe::knows_item`]);
//! * the learning times `t_i` — the first time `R` knows the first `i`
//!   items — come out of [`Universe::learning_times`], and their
//!   stability (once known, always known) is checkable with
//!   [`Universe::is_knowledge_stable`].
//!
//! ## Soundness note
//!
//! Knowledge quantifies over *all* runs of a system; a sampled universe is
//! a subset, so agreement over it is a *necessary* condition reported as
//! knowledge — an **upper bound** on what `R` knows. Disagreement inside a
//! sampled universe is conclusive: `R` provably does not know. The
//! `stp-verify` crate builds *exhaustive* universes for small systems,
//! turning the upper bound into the exact value; the two agree on every
//! case both can handle (see the integration tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod formula;
pub mod frontier;
pub mod learning;
pub mod universe;

pub use formula::Formula;
pub use frontier::{Frontier, FrontierPoint};
pub use learning::{empirical_write_steps, sample_universe, LearningProfile};
pub use universe::Universe;
