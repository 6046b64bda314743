//! `afd` — the AudioFile server daemon over simulated devices.
//!
//! Shapes (pick one):
//!
//! * `-lofi` (default): phone codec + local codec (pass-through pair) +
//!   HiFi stereo, as the paper's `Alofi` exports.
//! * `-codec`: one base-board codec, as `Aaxp`/`Asparc`.
//! * `-lineserver`: boots a LineServer firmware task on localhost UDP and
//!   serves it, as `Als`.
//!
//! Options: `-tcp host:port` (default 127.0.0.1:7000), `-unix path`,
//! `-update ms`, `-loopback` (wire local speaker to microphone, useful for
//! `apass` experiments), `-noaccess` (disable access control),
//! `-broadcast port` (stream device 0's speaker bus to
//! HTTP/ICY listeners on that port — encode-once fan-out, DESIGN.md §13),
//! and `-ring-every secs` (LoFi shape only: a scripted caller rings the
//! simulated line periodically, for exercising `aevents`/answering-machine
//! scripts).  Any other `-name` is refused: a mistyped or retired option
//! must not silently swallow the next one.
//!
//! Codec-shape endpoints: `-capture path` writes everything played to a
//! raw µ-law file (the speaker as a tape deck); `-mic path` feeds the
//! microphone from a raw µ-law file, looping.  `-loopback` overrides both.

use af_clients::cli::Args;
use af_device::{SilenceSource, SystemClock, Wire};
use af_server::ServerBuilder;
use af_util::aod;
use std::sync::Arc;

fn main() {
    let args = Args::parse_known(
        std::env::args(),
        &["-lofi", "-codec", "-lineserver", "-loopback", "-noaccess"],
        &[
            "-tcp",
            "-unix",
            "-update",
            "-broadcast",
            "-ring-every",
            "-capture",
            "-mic",
        ],
    )
    .unwrap_or_else(|e| {
        eprintln!("afd: {e}");
        std::process::exit(1);
    });

    let tcp: std::net::SocketAddr = args
        .get_str("-tcp")
        .unwrap_or_else(|| "127.0.0.1:7000".into())
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("afd: bad -tcp address: {e}");
            std::process::exit(1);
        });
    let update_ms: u64 = args.num_or("-update", af_server::MSUPDATE);

    let clock = Arc::new(SystemClock::new(8000));
    let (mut builder, phone) = if args.has_flag("-codec") {
        let mut b = ServerBuilder::new().vendor("audiofile-rs Aaxp");
        if args.has_flag("-loopback") {
            let wire = Wire::new(1 << 20, af_dsp::g711::ULAW_SILENCE);
            b.add_codec(
                clock.clone(),
                Box::new(wire.sink()),
                Box::new(wire.source()),
            );
        } else {
            let sink: Box<dyn af_device::SampleSink> = match args.get_str("-capture") {
                Some(path) => Box::new(af_device::FileSink::create(&path).unwrap_or_else(|e| {
                    eprintln!("afd: -capture {path}: {e}");
                    std::process::exit(1);
                })),
                None => Box::new(af_device::NullSink),
            };
            let source: Box<dyn af_device::SampleSource> = match args.get_str("-mic") {
                Some(path) => Box::new(
                    af_device::FileSource::open(&path, af_dsp::g711::ULAW_SILENCE, true)
                        .unwrap_or_else(|e| {
                            eprintln!("afd: -mic {path}: {e}");
                            std::process::exit(1);
                        }),
                ),
                None => Box::new(SilenceSource::new(af_dsp::g711::ULAW_SILENCE)),
            };
            b.add_codec(clock.clone(), sink, source);
        }
        (b, None)
    } else if args.has_flag("-lineserver") {
        // Boot a LineServer firmware task, then serve it.
        let ls_clock = Arc::new(SystemClock::new(8000));
        let (fw, addr) = af_device::lineserver::LineServerFirmware::boot(
            ls_clock,
            Box::new(af_device::NullSink),
            Box::new(SilenceSource::new(af_dsp::g711::ULAW_SILENCE)),
        )
        .unwrap_or_else(|e| {
            eprintln!("afd: cannot boot LineServer firmware: {e}");
            std::process::exit(1);
        });
        std::thread::spawn(move || fw.run());
        let mut b = ServerBuilder::new().vendor("audiofile-rs Als");
        aod!(
            b.add_lineserver(addr).is_ok(),
            "afd: cannot connect to LineServer at {addr}"
        );
        eprintln!("afd: LineServer firmware at {addr}");
        (b, None)
    } else {
        let hifi_clock = Arc::new(SystemClock::new(44_100));
        let (b, phone) = ServerBuilder::lofi(clock.clone(), hifi_clock);
        (b, Some(phone))
    };

    // A scripted caller: ring the simulated line on a fixed cadence.
    if let Some(period) = args.get_num::<f64>("-ring-every") {
        if let Some(line) = phone.clone() {
            std::thread::spawn(move || loop {
                std::thread::sleep(std::time::Duration::from_secs_f64(period.max(0.5)));
                if !line.query().0 {
                    line.office_ring(true);
                    std::thread::sleep(std::time::Duration::from_millis(400));
                    line.office_ring(false);
                }
            });
        } else {
            eprintln!("afd: -ring-every needs the LoFi shape (has no phone)");
        }
    }
    let _ = phone;
    builder = builder
        .listen_tcp(tcp)
        .update_interval(std::time::Duration::from_millis(update_ms))
        .access_control(!args.has_flag("-noaccess"));
    if let Some(path) = args.get_str("-unix") {
        builder = builder.listen_unix(path.into());
    }
    if let Some(port) = args.get_num::<u16>("-broadcast") {
        // Device 0 owns buffers in every shape afd builds.
        let addr = std::net::SocketAddr::new(tcp.ip(), port);
        builder = builder.broadcast(0, addr);
    }
    // The reactor serves thousands of sockets from a handful of threads;
    // lift the fd rlimit so the kernel doesn't cap us at the soft default.
    if let Err(e) = af_sys::raise_nofile_limit() {
        eprintln!("afd: cannot raise open-file limit: {e}");
    }

    let server = builder.spawn().unwrap_or_else(|e| {
        eprintln!("afd: cannot start server: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "afd: serving on {} (update every {update_ms} ms)",
        server.tcp_addr().map(|a| a.to_string()).unwrap_or_default()
    );
    if let Some(addr) = server.broadcast_addr() {
        eprintln!("afd: broadcasting device 0 speaker bus on http://{addr}/");
    }
    // Serve until killed.
    loop {
        std::thread::park();
    }
}
