//! Checkpoint robustness: a file that is truncated, bit-flipped, version-
//! bumped, or half-written must never load as a model, and must fail with
//! the right [`DetectorError`] category. A crash mid-save must leave the
//! previous checkpoint intact.

use std::sync::OnceLock;

use aero_core::{load_model, save_model, Aero, AeroConfig, Detector, DetectorError};
use aero_datagen::SyntheticConfig;

/// One good checkpoint JSON, produced once per test binary.
fn good_json() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let ds = SyntheticConfig::tiny(31415).build();
        let mut cfg = AeroConfig::tiny();
        cfg.max_epochs = 1;
        let mut model = Aero::new(cfg).unwrap();
        model.fit(&ds.train).unwrap();
        let path = tmp("good_source");
        save_model(&model, &path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        json
    })
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("aero_robust_{}_{name}.json", std::process::id()))
}

fn expect_corrupt(path: &std::path::Path, what: &str) {
    match load_model(path) {
        Err(DetectorError::Corrupt(_)) => {}
        Err(other) => panic!("{what}: expected Corrupt, got {other}"),
        Ok(_) => panic!("{what}: a damaged checkpoint loaded successfully"),
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn good_checkpoint_loads() {
    let path = tmp("good");
    std::fs::write(&path, good_json()).unwrap();
    let model = load_model(&path).unwrap();
    assert!(model.is_trained());
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_checkpoint_rejected() {
    let json = good_json();
    // Truncation anywhere — mid-structure, mid-number, mid-string — must
    // be rejected, not partially applied.
    for (i, frac) in [0.25f64, 0.5, 0.9, 0.999].iter().enumerate() {
        let cut = (json.len() as f64 * frac) as usize;
        let path = tmp(&format!("trunc{i}"));
        std::fs::write(&path, &json[..cut]).unwrap();
        expect_corrupt(&path, &format!("truncated at {cut}/{}", json.len()));
    }
}

#[test]
fn bit_flipped_parameter_rejected_by_checksum() {
    let json = good_json();
    // Locate a digit inside the parameter payload and alter it: the JSON
    // stays perfectly parseable, so only the checksum can catch it.
    let params_at = json.find("\"params\"").expect("params field present");
    let offset = json[params_at..]
        .char_indices()
        .find(|(i, c)| {
            c.is_ascii_digit() && {
                // Skip shape fields; look for a digit inside a float.
                let rest = &json[params_at + i + 1..];
                rest.starts_with(|c: char| c.is_ascii_digit() || c == '.')
            }
        })
        .map(|(i, _)| params_at + i)
        .expect("a numeric parameter value");
    let original = json.as_bytes()[offset] as char;
    let replacement = if original == '9' { '8' } else { '9' };
    let mut damaged = json.to_string();
    damaged.replace_range(offset..offset + 1, &replacement.to_string());
    assert_ne!(damaged, *json);

    let path = tmp("bitflip");
    std::fs::write(&path, &damaged).unwrap();
    expect_corrupt(&path, "single flipped digit in a parameter");
}

#[test]
fn version_bumped_checkpoint_rejected() {
    let json = good_json();
    let bumped = json.replacen("\"version\":3", "\"version\":4", 1);
    assert_ne!(&bumped, json, "version field not found in the expected form");
    let path = tmp("version");
    std::fs::write(&path, &bumped).unwrap();
    expect_corrupt(&path, "bumped format version");
}

#[test]
fn midsave_crash_leaves_previous_checkpoint_intact() {
    let json = good_json();
    let path = tmp("midsave");
    std::fs::write(&path, json).unwrap();

    // Simulate a crash mid-save: a half-written temp file next to the
    // checkpoint (what write-temp-then-rename leaves behind when killed
    // before the rename).
    let stray = path.with_file_name(format!(
        "{}.{}.tmp",
        path.file_name().unwrap().to_string_lossy(),
        std::process::id()
    ));
    std::fs::write(&stray, &json[..json.len() / 3]).unwrap();

    // The real checkpoint still loads; the partial temp does not.
    assert!(load_model(&path).is_ok(), "crash corrupted the previous checkpoint");
    assert!(
        load_model(&stray).is_err(),
        "a half-written temp file must never be loadable"
    );

    // And a subsequent successful save atomically replaces the checkpoint.
    let ds = SyntheticConfig::tiny(2718).build();
    let mut cfg = AeroConfig::tiny();
    cfg.max_epochs = 1;
    let mut model = Aero::new(cfg).unwrap();
    model.fit(&ds.train).unwrap();
    save_model(&model, &path).unwrap();
    assert!(load_model(&path).is_ok());

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&stray).ok();
}

#[test]
fn checkpoint_with_retired_config_keys_loads_and_scores_identically() {
    // Older checkpoints carry config keys for routing options that no
    // longer exist. The checksum covers only the numeric payload, so the
    // keys can be injected into a fresh checkpoint's config object; the
    // loader must ignore them rather than reject the file.
    let json = good_json();
    let marker = "\"config\":{";
    let at = json.find(marker).expect("config object present") + marker.len();
    let mut legacy = json.to_string();
    legacy.insert_str(at, "\"batched_inference\":true,\"quantized_rungs\":true,");

    let good_path = tmp("retired_keys_good");
    let legacy_path = tmp("retired_keys_legacy");
    std::fs::write(&good_path, json).unwrap();
    std::fs::write(&legacy_path, &legacy).unwrap();
    let mut good = load_model(&good_path).unwrap();
    let mut old = load_model(&legacy_path).expect("checkpoint with retired keys must load");

    let test = SyntheticConfig::tiny(31415).build().test;
    let bits =
        |m: &aero_tensor::Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&good.score(&test).unwrap()),
        bits(&old.score(&test).unwrap()),
        "retired config keys changed the scores"
    );
    std::fs::remove_file(&good_path).ok();
    std::fs::remove_file(&legacy_path).ok();
}
