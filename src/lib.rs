//! AudioFile: a network-transparent system for distributed audio
//! applications, reimplemented in Rust.
//!
//! This facade crate re-exports the workspace's public layers:
//!
//! * [`client`] — the client library (`libAF`): connections, audio
//!   contexts, timed play/record, events.
//! * [`server`] — the audio server: builder, buffering engine, transports.
//! * [`proto`] — the wire protocol (37 requests, 5 events, atoms).
//! * [`dsp`] — the utility substrate (`libAFUtil`): G.711, gain/mixing
//!   tables, tones, DTMF, FFT, power measurement.
//! * [`device`] — simulated audio hardware: clocks, rings, phone line,
//!   LineServer.
//! * [`time`] — the 32-bit wrapping device-time abstraction.
//! * [`util`] — client utility procedures: dialing, sound file I/O.
//!
//! # Quickstart
//!
//! ```
//! use audiofile::client::AudioConn;
//! use audiofile::device::{CaptureSink, SilenceSource, SystemClock};
//! use audiofile::server::ServerBuilder;
//! use std::sync::Arc;
//!
//! // Run a server with one simulated 8 kHz codec device.
//! let clock = Arc::new(SystemClock::new(8000));
//! let (sink, _speaker) = CaptureSink::new(1 << 20);
//! let mut builder = ServerBuilder::new().listen_tcp("127.0.0.1:0".parse().unwrap());
//! builder.add_codec(clock, Box::new(sink), Box::new(SilenceSource::new(0xFF)));
//! let server = builder.spawn().unwrap();
//!
//! // Connect, make an audio context, schedule a beep a bit in the future.
//! let mut conn = AudioConn::open(&server.tcp_addr().unwrap().to_string()).unwrap();
//! let device = conn.find_default_device().unwrap();
//! let ac = conn
//!     .create_ac(device, audiofile::client::AcMask::default(), &Default::default())
//!     .unwrap();
//! let beep = audiofile::dsp::tone::tone_pair(
//!     audiofile::dsp::telephony::call_progress("dialtone").unwrap().spec,
//!     8000.0,
//!     800,
//!     40,
//! );
//! let t = conn.get_time(device).unwrap();
//! conn.play_samples(&ac, t + 800u32, &beep).unwrap();
//! server.shutdown();
//! ```

pub use af_client as client;
pub use af_device as device;
pub use af_dsp as dsp;
pub use af_proto as proto;
pub use af_server as server;
pub use af_time as time;
pub use af_util as util;
