//! # stp-core — the Sequence Transmission Problem, as a library
//!
//! This crate is the heart of a full reproduction of
//!
//! > Da-Wei Wang and Lenore D. Zuck, *Tight Bounds for the Sequence
//! > Transmission Problem*, YALEU/DCS/TR-705, May 1989 (PODC 1989).
//!
//! In the *X-sequence transmission problem* (`X`-STP) a **sender** `S` reads
//! a sequence of data items from a finite domain and transmits them over an
//! unreliable bidirectional channel to a **receiver** `R`, which must write
//! them to an output tape such that
//!
//! * **safety** — the output is at all times a prefix of the input, and
//! * **liveness** — in every fair run every input item is eventually written.
//!
//! Both processors use **finite message alphabets**. The paper's central
//! result is that when the channel can reorder and duplicate
//! (`X`-STP(dup)), or reorder and delete (`X`-STP(del), for *bounded*
//! protocols), the number of distinct transmittable sequences is exactly
//!
//! ```text
//! α(m) = m! · Σ_{k=0}^{m} 1/k!
//! ```
//!
//! where `m` is the size of the sender's message alphabet — the number of
//! *repetition-free* sequences over an `m`-letter alphabet.
//!
//! ## What lives here
//!
//! * [`data`] — data domains, items and sequences (the input/output tapes).
//! * [`alphabet`] — finite message alphabets and typed messages.
//! * [`alpha`] — exact `α(m)` arithmetic, enumeration, ranking/unranking of
//!   repetition-free sequences.
//! * [`sequence`] — prefix structure of sequence families, the `β`
//!   identifying-prefix length used in the deletion-channel proofs.
//! * [`encoding`] — the encoding characterization of solvability: mappings
//!   from input sequences to repetition-free, prefix-monotone message
//!   sequences, plus constructors and capacity computations.
//! * [`proto`] — the sender/receiver protocol traits (deterministic state
//!   machines) shared by every protocol and by the simulator/verifier.
//! * [`event`] — the observable event vocabulary of a run.
//! * [`require`] — executable safety/liveness requirement checkers.
//! * [`schema`] — shared wire-schema types for the certificate subsystem
//!   (schema version, verdicts, the conformance-ledger record).
//! * [`error`] — the crate's error type.
//!
//! ## Quick start
//!
//! ```
//! use stp_core::alpha::alpha;
//!
//! // The tight bound for a 4-message sender alphabet:
//! assert_eq!(alpha(4).unwrap(), 65);
//! ```
//!
//! Higher layers (channels, protocols, the simulator, the knowledge checker
//! and the impossibility engine) live in the sibling crates `stp-channel`,
//! `stp-protocols`, `stp-sim`, `stp-knowledge` and `stp-verify`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha;
pub mod alphabet;
pub mod data;
pub mod encoding;
pub mod error;
pub mod event;
pub mod proto;
pub mod require;
pub mod schema;
pub mod sequence;

pub use alphabet::{Alphabet, RMsg, SMsg};
pub use data::{DataItem, DataSeq, Domain};
pub use error::{Error, Result};
pub use event::{CorruptionKind, Event, MsgEvent, MsgId, ProcessId, Step, Trace};
pub use proto::{
    InputTape, Msgs, Receiver, ReceiverEvent, ReceiverOutput, Sender, SenderEvent, SenderOutput,
};
pub use schema::{ConformanceVerdict, Verdict, CERT_SCHEMA_VERSION};
