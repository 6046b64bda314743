//! `e2e --smoke`: one round of every workload with 1 s windows, the traced
//! run and the layer calls included, must complete with no failed op and
//! every output check passing.  Needs `taskset`, like the benchmark itself.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn smoke_run_completes_with_error_rate_zero() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .current_dir(&dir)
        .args(["--smoke", "--seed", "11", "--out", "smoke.json"])
        .output()
        .expect("e2e runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "e2e --smoke failed with {}\n{stdout}\n{stderr}",
        out.status
    );
    let headers: Vec<&str> = stdout.lines().filter(|l| l.starts_with("# ")).collect();
    for workload in ["ctl_ping", "play_mix_lin16", "record_8k", "relay_resample"] {
        for kind in ["end to end (untraced)", "per layer (traced)"] {
            let header = headers
                .iter()
                .find(|l| l.starts_with(&format!("# {workload} {kind}:")))
                .unwrap_or_else(|| panic!("no {kind} result for {workload}\n{stdout}"));
            assert!(
                header.contains("correct=true") && header.contains(" failed=0 "),
                "{header}"
            );
        }
        let spans = dir.join(".e2e_run").join(format!("spans-{workload}.tsv"));
        let text = std::fs::read_to_string(&spans).expect("span file written");
        assert!(
            text.lines().count() > 100,
            "{} is nearly empty",
            spans.display()
        );
    }
    let report = std::fs::read_to_string(dir.join("smoke.json")).expect("--out written");
    assert!(report.starts_with('{') && report.contains("\"accounted_share\""));
}
