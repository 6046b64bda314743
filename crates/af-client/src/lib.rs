//! The AudioFile client library — the Rust `libAF` (§6.1).
//!
//! This crate is the sole interface to the protocol for applications: it
//! manages the connection, keeps client-side copies of audio contexts and
//! device attributes, translates calls into protocol requests, demultiplexes
//! the reply/event stream, and buffers the communications channel.
//!
//! The API follows the paper's `AF*` functions with Rust idiom: fallible
//! calls return [`Result`] instead of invoking global error handlers, and
//! `AFAudioConn *` becomes [`AudioConn`].  A mapping:
//!
//! | Paper (`libAF`)            | Here                                    |
//! |----------------------------|-----------------------------------------|
//! | `AFOpenAudioConn`          | [`AudioConn::open`]                     |
//! | `AFCloseAudioConn`         | drop the [`AudioConn`]                  |
//! | `AFGetTime`                | [`AudioConn::get_time`]                 |
//! | `AFCreateAC` / `AFFreeAC`  | [`AudioConn::create_ac`] / [`AudioConn::free_ac`] |
//! | `AFPlaySamples`            | [`AudioConn::play_samples`]             |
//! | `AFRecordSamples`          | [`AudioConn::record_samples`]           |
//! | `AFSelectEvents`           | [`AudioConn::select_events`]            |
//! | `AFNextEvent` / `AFPending`| [`AudioConn::next_event`] / [`AudioConn::pending`] |
//! | `AFIfEvent` family         | [`AudioConn::if_event`], [`AudioConn::check_if_event`], [`AudioConn::peek_if_event`] |
//! | `AFSync` / `AFSynchronize` | [`AudioConn::sync`] / [`AudioConn::set_synchronous`] |
//! | `AFFlush`                  | [`AudioConn::flush`]                    |
//! | `AFInternAtom` …           | [`AudioConn::intern_atom`] …            |
//! | `AFHookSwitch` …           | [`AudioConn::hook_switch`] …            |
//! | `AFGetErrorText`           | [`error_text`]                          |

mod conn;
mod error;

pub use conn::{Ac, AudioConn, ConnectOptions, ServerName};
pub use error::{error_text, AfError, AfResult};

// Protocol types applications use directly.
pub use af_proto::request::play_flags;
pub use af_proto::{
    AcAttributes, AcMask, Atom, DeviceDesc, DeviceId, ErrorCode, Event, EventDetail, EventKind,
    EventMask,
};
pub use af_time::ATime;
