//! End-to-end tests for the resident `aero serve` daemon and its `aero
//! loadgen` client (DESIGN.md §15), over real TCP sockets and real
//! processes:
//!
//! * **Crash equivalence** — a server SIGKILL'd mid-night and restarted
//!   with `--resume` must finish the night with a verdict log and health
//!   counters *bitwise identical* to an uninterrupted run.
//! * **Wire-fault tolerance** — seeded garbage, torn frames, duplicates,
//!   and slow-loris traffic across concurrent tenant connections must
//!   never poison the detector: the server keeps serving, accounts every
//!   rejection to a typed reason, and drains cleanly.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::OnceLock;

use aero_core::{save_model, Aero, AeroConfig, Detector};
use aero_datagen::SyntheticConfig;
use aero_timeseries::io::write_series;

/// One shared fixture per test binary: a tiny dataset on disk plus a
/// checkpoint trained with two epochs (the serve smoke needs a loadable
/// model, not a good one).
fn fixture() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("aero_serve_e2e_{}", std::process::id()));
        // A run that reused this PID may have left WAL segments behind,
        // which `aero serve --wal` (without `--resume`) refuses.
        let _ = std::fs::remove_dir_all(&dir);
        let data = dir.join("data");
        std::fs::create_dir_all(&data).unwrap();
        let dataset = SyntheticConfig::tiny(11).build();
        write_series(&dataset.train, &data.join("train.csv")).unwrap();
        write_series(&dataset.test, &data.join("test.csv")).unwrap();
        let mut cfg = AeroConfig::tiny();
        cfg.max_epochs = 2;
        let mut model = Aero::new(cfg).unwrap();
        model.fit(&dataset.train).unwrap();
        save_model(&model, &dir.join("model.json")).unwrap();
        dir
    })
}

/// A running `aero serve` child whose readiness line has been consumed.
/// Killed on drop so a failing assertion never leaks a listener.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn start(extra: &[&str]) -> Self {
        let dir = fixture();
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_aero"));
        cmd.arg("serve")
            .arg("--data")
            .arg(dir.join("data"))
            .arg("--model")
            .arg(dir.join("model.json"))
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd.spawn().expect("spawn aero serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("readiness line");
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected readiness line: {line:?}"))
            .split_whitespace()
            .next()
            .expect("addr token")
            .to_string();
        Server { child, stdout, addr }
    }

    /// SIGKILL — the crash the WAL must survive.
    fn kill_dash_nine(mut self) {
        self.child.kill().expect("kill -9 the server");
        self.child.wait().expect("reap");
        // Forget nothing: Drop would double-kill, which is harmless, but
        // consume self so the test reads as "the server is gone".
    }

    /// Waits for a clean exit (after a wire Drain) and returns the final
    /// summary JSON — the last line the server prints.
    fn wait_for_summary(mut self) -> String {
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("drain stdout");
        let status = self.child.wait().expect("server exit");
        assert!(status.success(), "server exited with {status}");
        rest.lines().last().expect("final summary line").to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs `aero loadgen` to completion and returns its stdout.
fn loadgen(addr: &str, extra: &[&str]) -> String {
    let dir = fixture();
    let out = Command::new(env!("CARGO_BIN_EXE_aero"))
        .arg("loadgen")
        .arg("--connect")
        .arg(addr)
        .arg("--data")
        .arg(dir.join("data"))
        .args(extra)
        .stderr(Stdio::null())
        .output()
        .expect("run aero loadgen");
    assert!(
        out.status.success(),
        "loadgen failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8(out.stdout).expect("loadgen stdout is utf8")
}

/// The summary's decision-relevant tail: every counter from the supervisor
/// and health blocks. The leading `frames` object legitimately differs
/// between a resumed and an uninterrupted run (replayed vs offered split);
/// everything after it must not.
fn summary_tail(summary: &str) -> &str {
    let at = summary.find("\"supervisor\"").expect("summary has a supervisor block");
    &summary[at..]
}

fn count(json: &str, key: &str) -> usize {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle).unwrap_or_else(|| panic!("{key} in {json}")) + needle.len();
    let rest = &json[at..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().unwrap()
}

/// SIGKILL the server mid-night, restart `--resume`, finish the night:
/// verdict log and all health/supervisor counters must be bitwise
/// identical to a run that was never interrupted.
#[test]
fn kill_nine_resume_is_bitwise_identical_to_uninterrupted() {
    let dir = fixture();
    let scratch = dir.join("bitwise");
    std::fs::create_dir_all(&scratch).unwrap();
    let ticks = "120";

    // Baseline: one server, the whole (bounded) night, clean drain.
    let base_verdicts = scratch.join("base_verdicts.log");
    let base_wal = scratch.join("base_wal");
    let server = Server::start(&[
        "--wal",
        base_wal.to_str().unwrap(),
        "--fsync",
        "record",
        "--verdicts",
        base_verdicts.to_str().unwrap(),
    ]);
    loadgen(&server.addr, &["--burst", "7", "--ticks", ticks, "--drain"]);
    let base_summary = server.wait_for_summary();

    // Interrupted: same schedule, but the server dies at tick 40 —
    // `kill -9`, no shutdown path, only the record-fsynced WAL survives.
    let verdicts = scratch.join("crash_verdicts.log");
    let wal = scratch.join("crash_wal");
    let server = Server::start(&[
        "--wal",
        wal.to_str().unwrap(),
        "--fsync",
        "record",
        "--verdicts",
        verdicts.to_str().unwrap(),
    ]);
    loadgen(&server.addr, &["--burst", "7", "--ticks", "40"]);
    server.kill_dash_nine();

    // Restart from the WAL and let the client resync off the status
    // document (it skips every frame the server already holds, keeping
    // tick boundaries — and with them the offer/poll interleaving —
    // aligned with the uninterrupted run).
    let server = Server::start(&[
        "--wal",
        wal.to_str().unwrap(),
        "--resume",
        "--fsync",
        "record",
        "--verdicts",
        verdicts.to_str().unwrap(),
    ]);
    loadgen(
        &server.addr,
        &["--burst", "7", "--ticks", ticks, "--resume-from-status", "--drain"],
    );
    let summary = server.wait_for_summary();

    let base_log = std::fs::read(&base_verdicts).unwrap();
    let crash_log = std::fs::read(&verdicts).unwrap();
    assert!(!base_log.is_empty(), "baseline produced no verdicts");
    assert_eq!(
        base_log, crash_log,
        "verdict logs diverge after kill -9 + --resume"
    );
    assert_eq!(
        summary_tail(&base_summary),
        summary_tail(&summary),
        "health/supervisor counters diverge after kill -9 + --resume"
    );
    // The night is conserved: replayed + offered in the resumed run equals
    // everything the baseline offered.
    assert!(count(&summary, "replayed") > 0, "resume replayed nothing: {summary}");
    assert_eq!(
        count(&summary, "replayed") + count(&summary, "offered"),
        count(&base_summary, "offered"),
        "frame conservation broke across the crash"
    );
}

/// Hostile wire traffic — garbage bytes, torn frames with disconnects,
/// duplicated batches, slow-loris chunking — across four concurrent
/// connections on two tenant lanes. The server must survive it all,
/// account rejections to typed reasons, and still drain cleanly.
#[test]
fn wire_faults_never_poison_the_server() {
    let server = Server::start(&[]);
    let addr = server.addr.clone();
    let out = loadgen(
        &addr,
        &[
            "--burst", "7", "--conns", "4", "--tenants", "2", "--wire-faults", "99",
            "--fault-period", "5", "--drain",
        ],
    );
    let summary = server.wait_for_summary();

    assert!(count(&out, "faults") > 0, "the fault plan never fired: {out}");
    assert!(count(&out, "reconnects") > 0, "torn frames should force reconnects: {out}");
    assert!(count(&out, "admitted") > 0, "no frames admitted through the chaos: {out}");
    // The detector behind the wire stayed healthy: it scored frames and
    // its supervisor saw no panics.
    assert!(count(&summary, "frames_accepted") > 0, "{summary}");
    assert_eq!(count(&summary, "panics"), 0, "{summary}");
    // Per-tenant accounting is present for both lanes.
    assert!(summary.contains("\"tenant\":0"), "{summary}");
    assert!(summary.contains("\"tenant\":1"), "{summary}");
}

/// The status endpoint answers on the same wire and nests the full health
/// report; a drain-only client shuts the server down gracefully.
#[test]
fn status_endpoint_and_graceful_drain() {
    let server = Server::start(&[]);
    let status = loadgen(&server.addr, &["--status"]);
    assert!(status.contains("\"state\":\"running\""), "{status}");
    assert!(status.contains("\"health\""), "{status}");
    assert_eq!(count(&status, "offered"), 0);

    let summary = loadgen(&server.addr, &["--drain-only"]);
    assert!(summary.contains("\"supervisor\""), "{summary}");
    let final_summary = server.wait_for_summary();
    assert_eq!(summary.trim(), final_summary.trim(), "drain ack and final summary differ");
}
