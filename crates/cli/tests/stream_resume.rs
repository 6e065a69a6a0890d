//! End-to-end kill/resume equivalence for `aero stream`, over the real
//! binary: a night killed mid-way with `--kill-after` and finished with
//! `--resume` must end with the same summary JSON as a night that was never
//! interrupted, in one-detector mode and in fleet mode (`--shards`).
//!
//! The only keys allowed to differ are the `frames.replayed` /
//! `frames.offered` split, and that split must still add up to the night:
//! `replayed` counts the frames recovered from the WAL, `offered` the frames
//! offered live after them.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use aero_core::{save_model, Aero, AeroConfig, Detector};
use aero_datagen::SyntheticConfig;
use aero_timeseries::io::write_series;

/// Frames in the fixture's test split: the length of one night.
fn night_len() -> usize {
    fixture().1
}

/// One shared fixture per test binary: a tiny dataset on disk plus a
/// two-epoch checkpoint for one-detector mode (fleet mode trains its own
/// backbone under the WAL root).
fn fixture() -> &'static (PathBuf, usize) {
    static DIR: OnceLock<(PathBuf, usize)> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("aero_stream_resume_{}", std::process::id()));
        // A run that reused this PID may have left WAL segments behind,
        // which `aero stream --wal` (without `--resume`) refuses.
        let _ = std::fs::remove_dir_all(&dir);
        let data = dir.join("data");
        std::fs::create_dir_all(&data).unwrap();
        let dataset = SyntheticConfig::tiny(41).build();
        write_series(&dataset.train, &data.join("train.csv")).unwrap();
        write_series(&dataset.test, &data.join("test.csv")).unwrap();
        let mut cfg = AeroConfig::tiny();
        cfg.max_epochs = 2;
        let mut model = Aero::new(cfg).unwrap();
        model.fit(&dataset.train).unwrap();
        save_model(&model, &dir.join("model.json")).unwrap();
        (dir, dataset.test.len())
    })
}

/// What one `aero stream` run printed: the `frames:` line's
/// replayed/offered counts and the summary JSON (the last stdout line).
struct Run {
    line_replayed: usize,
    line_offered: usize,
    summary: String,
}

fn stream(wal: &Path, extra: &[&str]) -> Run {
    let dir = &fixture().0;
    let out = Command::new(env!("CARGO_BIN_EXE_aero"))
        .arg("stream")
        .arg("--data")
        .arg(dir.join("data"))
        .arg("--wal")
        .arg(wal)
        .args(["--burst", "23", "--queue-cap", "16"])
        .args(extra)
        .output()
        .expect("run aero stream");
    assert!(
        out.status.success(),
        "aero stream {extra:?} failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is utf8");
    let frames = stdout
        .lines()
        .find_map(|l| l.strip_prefix("frames: "))
        .unwrap_or_else(|| panic!("no frames: line in {stdout}"));
    let words: Vec<&str> = frames.split_whitespace().collect();
    assert_eq!((words[1], words[2], words[4]), ("replayed", "+", "offered"), "{frames}");
    let summary = stdout.lines().last().expect("summary line").to_string();
    assert!(summary.starts_with("{\"frames\":{\"replayed\":"), "{summary}");
    Run {
        line_replayed: words[0].parse().unwrap(),
        line_offered: words[3].parse().unwrap(),
        summary,
    }
}

/// Reads `frames.<key>` from a summary (the `frames` object comes first).
fn frames(summary: &str, key: &str) -> usize {
    let needle = format!("\"{key}\":");
    let at = summary.find(&needle).unwrap_or_else(|| panic!("{key} in {summary}")) + needle.len();
    let rest = &summary[at..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().unwrap()
}

/// The summary without its `frames.replayed` / `frames.offered` split.
fn without_split(summary: &str) -> String {
    let split = format!(
        "\"replayed\":{},\"offered\":{},",
        frames(summary, "replayed"),
        frames(summary, "offered")
    );
    assert!(summary.contains(&split), "{summary}");
    summary.replacen(&split, "", 1)
}

/// Runs the night uninterrupted, then killed after 150 live frames and
/// resumed, and checks the two summaries agree.
fn assert_kill_resume_equivalent(name: &str, extra: &[&str]) {
    let scratch = fixture().0.join(name);
    std::fs::create_dir_all(&scratch).unwrap();
    let night = night_len();

    let full = stream(&scratch.join("full_wal"), extra);
    assert_eq!(frames(&full.summary, "replayed"), 0);
    assert_eq!(frames(&full.summary, "offered"), night);

    let wal = scratch.join("crash_wal");
    let killed = stream(&wal, &[extra, &["--kill-after", "150"]].concat());
    assert_eq!(frames(&killed.summary, "offered"), 150);
    let resumed = stream(&wal, &[extra, &["--resume"]].concat());

    // The split adds up to the night, in the JSON and in the text line.
    let (replayed, offered) =
        (frames(&resumed.summary, "replayed"), frames(&resumed.summary, "offered"));
    assert_eq!(replayed, 150, "{name}: resume should recover the killed run's frames");
    assert_eq!(replayed + offered, night, "{name}: replayed + offered is not the night");
    assert_eq!((resumed.line_replayed, resumed.line_offered), (replayed, offered));

    // Every other key is byte-equal to the uninterrupted run's.
    assert_eq!(
        without_split(&full.summary),
        without_split(&resumed.summary),
        "{name}: resumed summary diverges from the uninterrupted night"
    );
}

#[test]
fn single_detector_kill_resume_matches_uninterrupted_night() {
    let model = fixture().0.join("model.json");
    assert_kill_resume_equivalent("single", &["--model", model.to_str().unwrap()]);
}

#[test]
fn fleet_kill_resume_matches_uninterrupted_night() {
    assert_kill_resume_equivalent("fleet", &["--shards", "3"]);
}
