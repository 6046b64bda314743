//! The AudioFile client applications (§8, Table 8).
//!
//! Binaries in `src/bin/` reproduce the paper's core clients:
//!
//! | binary    | paper client | function |
//! |-----------|--------------|----------|
//! | `afd`     | `Alofi`/`Aaxp`/`Als` | the audio server daemon (simulated devices) |
//! | `aplay`   | `aplay`   | playback from files or pipes |
//! | `arecord` | `arecord` | record to files or pipes |
//! | `apass`   | `apass`   | record from one server, play on another |
//! | `aphone`  | `aphone`  | telephone dialer |
//! | `ahs`     | `ahs`     | hookswitch control |
//! | `aevents` | `aevents` | report input events |
//! | `aset`    | `aset`    | device control |
//! | `ahost`   | `ahost`   | access control |
//! | `alsatoms`| `alsatoms`| display defined atoms |
//! | `aprop`   | `aprop`   | display and modify properties |
//! | `atone`   | `atone`   | stdio µ-law signal generator |
//! | `apower`  | `apower`  | stdio µ-law power meter |
//! | `afft`    | `afft`    | real-time spectrogram (terminal rendering) |
//! | `abiff`   | `abiff`   | audio notification when a file grows |
//!
//! This library holds what the binaries share: a small argument parser and
//! connection helpers.

pub mod cli;

use af_client::{AfResult, AudioConn, DeviceId};

/// Opens the server named by `-server`/`-a` (falling back to `$AUDIOFILE`).
pub fn open_conn(args: &cli::Args) -> AfResult<AudioConn> {
    let name = args
        .get_str("-server")
        .or_else(|| args.get_str("-a"))
        .unwrap_or_default();
    AudioConn::open(&name)
}

/// Picks the device from `-d`, defaulting to the first non-telephone device
/// (§8.1.1).
pub fn pick_device(args: &cli::Args, conn: &AudioConn) -> Option<DeviceId> {
    match args.get_str("-d") {
        Some(d) => d
            .parse::<DeviceId>()
            .ok()
            .filter(|d| conn.device(*d).is_some()),
        None => conn.find_default_device(),
    }
}
