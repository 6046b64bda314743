//! Layer calls: each layer's public functions timed alone, single-threaded,
//! on the same messages and seeded payloads the workloads send.  These are
//! the terms the traced run's per-thread CPU is compared against.

use crate::json::Json;
use crate::workload::{Inputs, PLAY_FRAMES, PLAY_LEAD_TICKS, RECORD_BYTES, RECORD_PAST_TICKS};
use af_device::hardware::HwConfig;
use af_device::{SampleSink, SampleSource, SharedClock, SystemClock, VirtualAudioHw};
use af_dsp::convert::Converter;
use af_dsp::resample::Resampler;
use af_dsp::Encoding;
use af_proto::message::MessageHeader;
use af_proto::{ByteOrder, Reply, Request};
use af_server::backend::LocalBackend;
use af_server::{BufferPool, DeviceBuffers};
use af_time::ATime;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The client library's chunk size: a 32 KB play is four of these.
const CHUNK_BYTES: usize = 8_192;
const BATCH: Duration = Duration::from_millis(2);
const BATCHES: usize = 15;
/// The server's update period, `MSUPDATE`.
const UPDATE_PERIOD: Duration = Duration::from_millis(100);
const UPDATES: usize = 6;

/// The fastest of [`BATCHES`] batches, as the mean time of one call in ns.
/// A batch is as many calls as take about [`BATCH`], found by doubling.
/// Whatever else the machine does can only slow a batch down, so the
/// fastest one is the one that timed the call.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut time_batch = |calls: u64| {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        start.elapsed()
    };
    let mut calls = 1u64;
    while time_batch(calls) < BATCH && calls < 1 << 30 {
        calls *= 2;
    }
    (0..BATCHES)
        .map(|_| time_batch(calls).as_nanos() as f64 / calls as f64)
        .fold(f64::INFINITY, f64::min)
}

struct Silent;

impl SampleSink for Silent {
    fn consume(&mut self, _time: ATime, _data: &[u8]) {}
}

impl SampleSource for Silent {
    fn fill(&mut self, _time: ATime, out: &mut [u8]) {
        out.fill(af_dsp::g711::ULAW_SILENCE);
    }
}

/// Splits an encoded request frame into what the server's framing hands to
/// `Request::decode`.
fn request_parts(order: ByteOrder, frame: &[u8]) -> Result<(af_proto::Opcode, &[u8]), String> {
    let header: &[u8; 4] = frame
        .get(..4)
        .and_then(|h| h.try_into().ok())
        .ok_or("short request frame")?;
    let (opcode, len) = Request::parse_header(order, header).map_err(|e| e.to_string())?;
    let payload = frame.get(4..4 + len).ok_or("truncated request frame")?;
    Ok((opcode, payload))
}

fn reply_parts(order: ByteOrder, frame: &[u8]) -> Result<(MessageHeader, &[u8]), String> {
    let header = frame
        .get(..MessageHeader::SIZE)
        .ok_or("short reply frame".to_string())
        .and_then(|h| MessageHeader::decode(order, h).map_err(|e| e.to_string()))?;
    let payload = frame
        .get(MessageHeader::SIZE..MessageHeader::SIZE + header.payload_len())
        .ok_or("truncated reply frame")?;
    Ok((header, payload))
}

pub fn run(seed: u64) -> Result<Json, String> {
    let inputs = Inputs::from_seed(seed);
    let order = ByteOrder::native();
    let mut m = Json::obj();

    // af-proto: the messages of ctl_ping, and the 8 KB data messages.
    let time = ATime::new(123_456);
    let ulaw_8k: Vec<u8> = (0..RECORD_BYTES as u32)
        .map(|t| crate::workload::mic_byte(inputs.mic_key, t))
        .collect();
    let requests = [
        ("get_time", Request::GetTime { device: 0 }),
        (
            "play_8k",
            Request::PlaySamples {
                ac: 1,
                start_time: time,
                flags: 0,
                data: inputs.play_lin16[..CHUNK_BYTES].to_vec(),
            },
        ),
    ];
    for (name, req) in &requests {
        m.set(
            &format!("proto.{name}_req_encode_ns"),
            ns_per_call(|| drop(black_box(black_box(req).encode(order)))),
        );
        let frame = req.encode(order);
        let (opcode, payload) = request_parts(order, &frame)?;
        Request::decode(order, opcode, payload).map_err(|e| e.to_string())?;
        m.set(
            &format!("proto.{name}_req_decode_ns"),
            ns_per_call(|| {
                drop(black_box(Request::decode(
                    order,
                    opcode,
                    black_box(payload),
                )))
            }),
        );
    }
    let replies = [
        ("time", Reply::Time { time }),
        (
            "record_8k",
            Reply::Record {
                time,
                data: ulaw_8k.clone(),
            },
        ),
    ];
    for (name, reply) in &replies {
        // The server encodes into a pooled buffer it reuses.
        let mut frame = Vec::new();
        m.set(
            &format!("proto.{name}_reply_encode_ns"),
            ns_per_call(|| black_box(reply).encode_into(order, 7, black_box(&mut frame))),
        );
        let (header, payload) = reply_parts(order, &frame)?;
        Reply::decode(order, &header, payload).map_err(|e| e.to_string())?;
        m.set(
            &format!("proto.{name}_reply_decode_ns"),
            ns_per_call(|| drop(black_box(Reply::decode(order, &header, black_box(payload))))),
        );
    }

    // af-dsp: the stages of the play path and of the relay's client side.
    let lin16 = &inputs.play_lin16;
    let mut converter =
        Converter::new(Encoding::Lin16, Encoding::Mu255).map_err(|e| e.to_string())?;
    let mut ulaw = Vec::new();
    let convert = ns_per_call(|| {
        let _ = converter.convert_into(black_box(lin16), black_box(&mut ulaw));
    });
    if ulaw.len() != PLAY_FRAMES {
        return Err(format!("converter produced {} bytes", ulaw.len()));
    }
    m.set(
        "dsp.convert_lin16_ulaw_ns_per_byte",
        convert / lin16.len() as f64,
    );
    let gain_table = af_dsp::gain::gain_table_u(-6).ok_or("no -6 dB gain table")?;
    let mut gained = ulaw.clone();
    m.set(
        "dsp.gain_ulaw_ns_per_byte",
        ns_per_call(|| gain_table.apply_in_place(black_box(&mut gained))) / ulaw.len() as f64,
    );
    let mut mixed = ulaw.clone();
    m.set(
        "dsp.mix_ulaw_ns_per_byte",
        ns_per_call(|| af_dsp::mix::mix_ulaw(black_box(&mut mixed), black_box(&ulaw)))
            / ulaw.len() as f64,
    );
    let mut pcm = vec![0i16; ulaw_8k.len()];
    m.set(
        "dsp.decode_ulaw_ns_per_byte",
        ns_per_call(|| {
            (af_dsp::kernels::active().decode_ulaw)(black_box(&ulaw_8k), black_box(&mut pcm))
        }) / ulaw_8k.len() as f64,
    );
    let mut resampler = Resampler::new(8000.0, 8000.0 * (1.0 + inputs.drift_ppm * 1e-6));
    let mut resampled = Vec::new();
    m.set(
        "dsp.resample_ns_per_sample",
        ns_per_call(|| {
            resampled.clear();
            resampler.process_into(black_box(&pcm), black_box(&mut resampled));
        }) / pcm.len() as f64,
    );

    // af-server buffer and pool, af-device: one CODEC's buffers over the
    // local backend, on a real-time clock as in the server.
    let clock: SharedClock = Arc::new(SystemClock::new(8000));
    m.set(
        "device.clock_now_ns",
        ns_per_call(|| {
            black_box(clock.now());
        }),
    );
    let hw = VirtualAudioHw::new(
        HwConfig::codec(),
        Arc::clone(&clock),
        Box::new(Silent),
        Box::new(Silent),
    );
    let mut buffers =
        DeviceBuffers::new(Box::new(LocalBackend::new(hw)), Encoding::Mu255, 1, 32_768);
    buffers.add_recorder();
    for (name, preempt) in [("mix", false), ("preempt", true)] {
        buffers.update(0, true);
        let per_call = ns_per_call(|| {
            let at = buffers.now().offset(PLAY_LEAD_TICKS);
            black_box(buffers.write_play(at, black_box(&ulaw), preempt, 0, true));
        });
        m.set(
            &format!("buffer.write_play_{name}_ns_per_byte"),
            per_call / ulaw.len() as f64,
        );
    }
    buffers.update(0, true);
    m.set(
        "buffer.read_rec_ns_per_byte",
        ns_per_call(|| {
            let from = buffers.now().offset(-RECORD_PAST_TICKS);
            drop(black_box(buffers.read_rec(from, RECORD_BYTES as u32)));
        }) / RECORD_BYTES as f64,
    );
    // The update task at its own period, with played data to move.
    let mut updates = Vec::with_capacity(UPDATES);
    for _ in 0..UPDATES {
        let at = buffers.now().offset(PLAY_LEAD_TICKS);
        buffers.write_play(at, &ulaw, false, 0, true);
        std::thread::sleep(UPDATE_PERIOD);
        let start = Instant::now();
        black_box(buffers.update(0, true));
        updates.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    m.set("buffer.update_us", crate::stats::median(&updates));
    let pool = BufferPool::shared();
    m.set(
        "pool.take_recycle_ns",
        ns_per_call(|| drop(black_box(pool.take_filled(black_box(RECORD_BYTES))))),
    );

    let mut out = Json::obj();
    out.set("dsp_kernels", af_dsp::kernels::active().name)
        .set("metrics", m);
    Ok(out)
}
