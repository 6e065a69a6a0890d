//! Model persistence: save a trained [`Aero`] to JSON and load it back —
//! train once offline, deploy in the online monitor.
//!
//! # Format v3: backbone once, deltas per star
//!
//! A v3 file stores the shared trunk — configuration plus every parameter
//! tensor — **once**, followed by one kilobyte-scale
//! [`StarDelta`](crate::model::StarDelta) per star (scaler column + trained
//! adapter head), and an integrity checksum over the whole numeric payload.
//! Loading rebuilds the module structure deterministically (same config
//! seed ⇒ same parameter registration order) and reassembles the detector
//! via [`Aero::from_backbone`], verifying names, shapes, delta
//! well-formedness, and the checksum. v3 is the only version read: older
//! files (v1 without a checksum, v2 monolithic) are rejected with a typed
//! [`DetectorError::Corrupt`] that names the version and the remedy.
//!
//! # Crash safety
//!
//! [`save_model`] never writes the target path directly: it writes a
//! sibling temporary file, fsyncs it, and atomically renames it over the
//! destination. A crash (or `kill -9`) at any instant therefore leaves
//! either the previous complete checkpoint or the new complete checkpoint
//! at `path` — never a truncated hybrid. An abandoned `.tmp` sibling may
//! survive a crash, but it is not at the load path and [`load_model`]
//! rejects partial content anyway.
//!
//! # Error taxonomy
//!
//! - [`DetectorError::Io`] — the OS failed to read/write (missing file,
//!   permissions, full disk). Retryable; nothing is known about the data.
//! - [`DetectorError::Corrupt`] — a file exists but its contents are
//!   unusable: unparseable JSON, truncation, checksum mismatch, shape or
//!   name drift, or an incompatible format version.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use crate::adapter::StarAdapter;
use crate::config::AeroConfig;
use crate::detector::{DetectorError, DetectorResult};
use crate::model::{Aero, BackboneSnapshot, StarDelta};

/// On-disk representation of a trained model (format v3): the shared trunk
/// stored once, plus one delta per star.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct SavedAero {
    /// Format version for forward compatibility.
    version: u32,
    config: AeroConfig,
    num_variates: usize,
    /// `(name, rows, cols, values)` per trunk parameter, in registration
    /// order — stored exactly once no matter how many stars share it.
    params: Vec<(String, usize, usize, Vec<f32>)>,
    /// One per star, in variate order.
    deltas: Vec<SavedDelta>,
    /// FNV-1a over the numeric payload bits; see [`payload_checksum`].
    checksum: u64,
}

/// One star's persisted delta: scaler column + optional adapter head.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct SavedDelta {
    scaler_min: f32,
    scaler_range: f32,
    #[serde(default)]
    adapter: Option<SavedAdapter>,
}

/// A serialized [`StarAdapter`].
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct SavedAdapter {
    omega: usize,
    rank: usize,
    p: Vec<f32>,
    q: Vec<f32>,
    bias: f32,
    mean: f32,
    var: f32,
    updates: u64,
}

/// Version 3 stores the backbone once plus per-star deltas. Version 2 (a
/// monolithic layout) and version 1 (no checksum) are no longer read.
const FORMAT_VERSION: u32 = 3;

/// Incremental FNV-1a 64-bit hasher — the integrity scheme shared by the
/// checkpoint format and the write-ahead log (`crate::wal`).
#[derive(Debug, Clone)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Self(Self::OFFSET)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit over the v3 bit-exact payload: variate count, every trunk
/// parameter's name/shape/values, and every star delta. Catches bit flips
/// and silent truncation that still happen to parse as JSON.
fn payload_checksum(
    num_variates: usize,
    params: &[(String, usize, usize, Vec<f32>)],
    deltas: &[SavedDelta],
) -> u64 {
    let mut h = Fnv64::new();
    h.write(&(num_variates as u64).to_le_bytes());
    for (name, rows, cols, values) in params {
        h.write(name.as_bytes());
        h.write(&(*rows as u64).to_le_bytes());
        h.write(&(*cols as u64).to_le_bytes());
        for &v in values {
            h.write(&v.to_bits().to_le_bytes());
        }
    }
    for d in deltas {
        h.write(&d.scaler_min.to_bits().to_le_bytes());
        h.write(&d.scaler_range.to_bits().to_le_bytes());
        match &d.adapter {
            None => h.write(&[0]),
            Some(a) => {
                h.write(&[1]);
                h.write(&(a.omega as u64).to_le_bytes());
                h.write(&(a.rank as u64).to_le_bytes());
                for &v in a.p.iter().chain(&a.q) {
                    h.write(&v.to_bits().to_le_bytes());
                }
                for v in [a.bias, a.mean, a.var] {
                    h.write(&v.to_bits().to_le_bytes());
                }
                h.write(&a.updates.to_le_bytes());
            }
        }
    }
    h.finish()
}

/// Converts a live adapter head into its on-disk form.
fn saved_adapter(head: &StarAdapter) -> SavedAdapter {
    SavedAdapter {
        omega: head.omega(),
        rank: head.rank(),
        p: head.p.clone(),
        q: head.q.clone(),
        bias: head.bias,
        mean: head.mean,
        var: head.var,
        updates: head.updates(),
    }
}

/// Saves a trained model to `path` as JSON (format v3), atomically.
pub fn save_model(model: &Aero, path: &Path) -> DetectorResult<()> {
    if !model.is_trained() {
        return Err(DetectorError::Invalid("cannot save an untrained model".into()));
    }
    let store = model.store();
    let params: Vec<(String, usize, usize, Vec<f32>)> = store
        .iter()
        .map(|(_, p)| {
            let v = p.value();
            (p.name().to_string(), v.rows(), v.cols(), v.as_slice().to_vec())
        })
        .collect();
    let num_variates = model.scaler().mins().len();
    let deltas: Vec<SavedDelta> = (0..num_variates)
        .map(|v| {
            let d = model.star_delta(v)?;
            Ok(SavedDelta {
                scaler_min: d.scaler_min,
                scaler_range: d.scaler_range,
                adapter: d.adapter.as_ref().map(saved_adapter),
            })
        })
        .collect::<DetectorResult<_>>()?;
    let checksum = payload_checksum(num_variates, &params, &deltas);
    let saved = SavedAero {
        version: FORMAT_VERSION,
        config: model.config().clone(),
        num_variates,
        params,
        deltas,
        checksum,
    };
    let json = serde_json::to_string(&saved)
        .map_err(|e| DetectorError::Invalid(format!("serialize: {e}")))?;

    // Write-temp, fsync, rename: the destination path transitions
    // atomically from old-complete to new-complete.
    let tmp = temp_sibling(path);
    let result = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(json.as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = result {
        // Best-effort cleanup; the partial temp must not be mistaken for a
        // checkpoint, and it is unloadable regardless.
        std::fs::remove_file(&tmp).ok();
        return Err(DetectorError::Io(format!("write {}: {e}", path.display())));
    }
    Ok(())
}

/// Sibling temp path in the same directory (rename must not cross
/// filesystems to stay atomic).
fn temp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("checkpoint"),
        ToOwned::to_owned,
    );
    name.push(format!(".{}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// Loads a trained model from `path`, verifying format version, parameter
/// names/shapes, and the integrity checksum.
pub fn load_model(path: &Path) -> DetectorResult<Aero> {
    // Read raw bytes, not a string: a garbage (non-UTF-8) file is corrupt
    // content, not an I/O failure, and must be classified as such.
    let bytes = std::fs::read(path)
        .map_err(|e| DetectorError::Io(format!("read {}: {e}", path.display())))?;
    let json = std::str::from_utf8(&bytes)
        .map_err(|e| DetectorError::Corrupt(format!("parse: not valid UTF-8: {e}")))?;
    // Probe the version before deserializing the full payload: an old or
    // future file whose schema drifted must still produce the version
    // diagnostic, not a field-level parse error.
    #[derive(serde::Deserialize)]
    struct VersionProbe {
        version: u32,
    }
    let probe: VersionProbe = serde_json::from_str(json)
        .map_err(|e| DetectorError::Corrupt(format!("parse: {e}")))?;
    match probe.version {
        FORMAT_VERSION => load_v3(json, path),
        other => {
            let hint = if other < FORMAT_VERSION {
                "re-train and save with this build, or convert the file: migrate it by \
                 loading it with an earlier release that reads this version and re-saving"
            } else {
                "this file was written by a newer release — upgrade this build to load it"
            };
            Err(DetectorError::Corrupt(format!(
                "{} is model format version {other}, but this build reads only version \
                 {FORMAT_VERSION} (backbone+deltas): {hint}",
                path.display(),
            )))
        }
    }
}

/// Loads a v3 (backbone + deltas) checkpoint: verifies the checksum, then
/// reassembles the detector through the same [`Aero::from_backbone`] path a
/// fleet uses — bitwise identical to the model that was saved.
fn load_v3(json: &str, path: &Path) -> DetectorResult<Aero> {
    let saved: SavedAero = serde_json::from_str(json)
        .map_err(|e| DetectorError::Corrupt(format!("parse: {e}")))?;
    let expect = payload_checksum(saved.num_variates, &saved.params, &saved.deltas);
    if expect != saved.checksum {
        return Err(DetectorError::Corrupt(format!(
            "checksum mismatch: file claims {:#018x}, payload hashes to {expect:#018x}",
            saved.checksum
        )));
    }
    if saved.deltas.len() != saved.num_variates {
        return Err(DetectorError::Corrupt(format!(
            "{} claims {} variates but carries {} star deltas",
            path.display(),
            saved.num_variates,
            saved.deltas.len()
        )));
    }
    let params: Vec<(String, Arc<aero_tensor::Matrix>)> = saved
        .params
        .into_iter()
        .map(|(name, rows, cols, values)| {
            let m = aero_tensor::Matrix::from_vec(rows, cols, values)
                .map_err(|e| DetectorError::Corrupt(format!("parameter {name}: {e}")))?;
            Ok((name, Arc::new(m)))
        })
        .collect::<DetectorResult<_>>()?;
    let backbone = BackboneSnapshot::from_parts(saved.config, params)
        .map_err(|e| DetectorError::Corrupt(format!("backbone: {e}")))?;
    let deltas: Vec<StarDelta> = saved
        .deltas
        .into_iter()
        .enumerate()
        .map(|(v, d)| {
            let adapter = match d.adapter {
                None => None,
                Some(a) => Some(
                    StarAdapter::from_parts(
                        a.omega, a.rank, a.p, a.q, a.bias, a.mean, a.var, a.updates,
                    )
                    .map_err(|e| corrupt_delta(v, &e))?,
                ),
            };
            Ok(StarDelta { scaler_min: d.scaler_min, scaler_range: d.scaler_range, adapter })
        })
        .collect::<DetectorResult<_>>()?;
    Aero::from_backbone(&backbone, &deltas)
        .map_err(|e| DetectorError::Corrupt(format!("reassemble: {e}")))
}

/// A star's delta failed structural validation: a typed [`Corrupt`]
/// (`DetectorError::Corrupt`) naming the star and the file's format version.
fn corrupt_delta(star: usize, cause: &DetectorError) -> DetectorError {
    DetectorError::Corrupt(format!(
        "star {star}'s adapter delta rejected while loading a version {FORMAT_VERSION} \
         checkpoint: {cause}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AeroConfig;
    use crate::detector::Detector;
    use aero_datagen::SyntheticConfig;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("aero_persist_{}_{name}", std::process::id()))
    }

    fn trained_model() -> (Aero, aero_timeseries::Dataset) {
        let ds = SyntheticConfig::tiny(500).build();
        let mut cfg = AeroConfig::tiny();
        cfg.max_epochs = 2;
        let mut model = Aero::new(cfg).unwrap();
        model.fit(&ds.train).unwrap();
        (model, ds)
    }

    #[test]
    fn save_load_roundtrips_scores() {
        let (mut model, ds) = trained_model();
        let original = model.score(&ds.test).unwrap();

        let path = tmp("roundtrip.json");
        save_model(&model, &path).unwrap();
        let mut loaded = load_model(&path).unwrap();
        assert!(loaded.is_trained());
        let restored = loaded.score(&ds.test).unwrap();
        assert_eq!(original, restored, "loaded model must score identically");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn adapter_heads_roundtrip_through_v3() {
        let ds = SyntheticConfig::tiny(500).build();
        let mut cfg = AeroConfig::tiny();
        cfg.max_epochs = 2;
        cfg.adapter_rank = 2;
        let mut model = Aero::new(cfg).unwrap();
        model.fit(&ds.train).unwrap();
        // Move star 1's head off identity so the delta actually carries state.
        for _ in 0..5 {
            model.adapt_star(1, &ds.test).unwrap();
        }
        assert!(!model.adapters().unwrap().head(1).unwrap().is_identity());
        let original = model.score(&ds.test).unwrap();

        let path = tmp("adapter_roundtrip.json");
        save_model(&model, &path).unwrap();
        let mut loaded = load_model(&path).unwrap();
        assert_eq!(
            model.adapters().unwrap(),
            loaded.adapters().unwrap(),
            "adapter heads must roundtrip exactly"
        );
        let restored = loaded.score(&ds.test).unwrap();
        assert_eq!(original, restored, "adapted model must score identically after reload");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_monolithic_file_rejected_with_conversion_hint() {
        // The monolithic v2 layout is no longer read: the version gate must
        // fire before any payload validation and name the file's version,
        // the version this build reads, and the remedy.
        let path = tmp("v2.json");
        std::fs::write(
            &path,
            r#"{"version":2,"config":{},"num_variates":0,"scaler_mins":[],"scaler_ranges":[],"params":[],"checksum":0}"#,
        )
        .unwrap();
        match load_model(&path) {
            Err(DetectorError::Corrupt(msg)) => {
                assert!(msg.contains("version 2"), "names the file's version: {msg}");
                assert!(msg.contains("only version 3"), "names the version read: {msg}");
                assert!(msg.contains("re-train"), "offers re-train: {msg}");
                assert!(msg.contains("convert"), "offers conversion: {msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_adapter_delta_rejected_naming_both_versions() {
        // A v3 file whose checksum is valid but whose star-delta payload is
        // structurally broken (truncated adapter weights — NaN can't be used
        // here because JSON renders it as null, which fails at parse before
        // the delta validator runs) must be rejected by the delta validator
        // with a typed Corrupt error that names the v3 format.
        let ds = SyntheticConfig::tiny(500).build();
        let mut cfg = AeroConfig::tiny();
        cfg.max_epochs = 2;
        cfg.adapter_rank = 2;
        let mut model = Aero::new(cfg).unwrap();
        model.fit(&ds.train).unwrap();
        model.adapt_star(0, &ds.test).unwrap();

        // Rebuild the save payload by hand with star 0's `q` poisoned, and a
        // checksum computed over the *poisoned* bits so the corruption gate
        // that fires is the structural one, not the bit-flip one.
        let params: Vec<(String, usize, usize, Vec<f32>)> = model
            .store()
            .iter()
            .map(|(_, p)| {
                let v = p.value();
                (p.name().to_string(), v.rows(), v.cols(), v.as_slice().to_vec())
            })
            .collect();
        let num_variates = model.scaler().mins().len();
        let mut deltas: Vec<SavedDelta> = (0..num_variates)
            .map(|v| {
                let d = model.star_delta(v).unwrap();
                SavedDelta {
                    scaler_min: d.scaler_min,
                    scaler_range: d.scaler_range,
                    adapter: d.adapter.as_ref().map(saved_adapter),
                }
            })
            .collect();
        deltas[0].adapter.as_mut().unwrap().q.pop();
        let checksum = payload_checksum(num_variates, &params, &deltas);
        let saved = SavedAero {
            version: FORMAT_VERSION,
            config: model.config().clone(),
            num_variates,
            params,
            deltas,
            checksum,
        };
        let path = tmp("poisoned_delta.json");
        std::fs::write(&path, serde_json::to_string(&saved).unwrap()).unwrap();

        match load_model(&path) {
            Err(DetectorError::Corrupt(msg)) => {
                assert!(msg.contains("star 0"), "names the damaged star: {msg}");
                assert!(msg.contains("version 3"), "names the file's format: {msg}");
                assert!(msg.contains("shape mismatch"), "names the cause: {msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn untrained_model_refuses_to_save() {
        let model = Aero::new(AeroConfig::tiny()).unwrap();
        assert!(save_model(&model, &tmp("untrained.json")).is_err());
    }

    #[test]
    fn v1_file_rejected_with_migration_hint() {
        // A syntactically valid pre-checksum (version 1) file: the version
        // gate must fire before any payload validation and tell the operator
        // both the file's version and what to do about it.
        let path = tmp("v1.json");
        std::fs::write(
            &path,
            r#"{"version":1,"config":{},"num_variates":0,"scaler_mins":[],"scaler_ranges":[],"params":[],"checksum":0}"#,
        )
        .unwrap();
        match load_model(&path) {
            Err(DetectorError::Corrupt(msg)) => {
                assert!(msg.contains("version 1"), "names the file's version: {msg}");
                assert!(msg.contains("re-train"), "offers re-train: {msg}");
                assert!(msg.contains("migrate"), "offers migration: {msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_rejected_with_upgrade_hint() {
        let path = tmp("v99.json");
        std::fs::write(
            &path,
            r#"{"version":99,"config":{},"num_variates":0,"scaler_mins":[],"scaler_ranges":[],"params":[],"checksum":0}"#,
        )
        .unwrap();
        match load_model(&path) {
            Err(DetectorError::Corrupt(msg)) => {
                assert!(msg.contains("version 99"), "names the file's version: {msg}");
                assert!(msg.contains("newer release"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_header_rejected_as_corrupt() {
        // Binary junk that is not JSON at all — the parse gate, not the
        // version gate, must reject it, still as Corrupt (the file exists
        // and was readable; its *contents* are the problem).
        let path = tmp("garbage.bin");
        std::fs::write(&path, [0x7fu8, b'E', b'L', b'F', 0, 1, 2, 3, 0xff, 0xfe]).unwrap();
        match load_model(&path) {
            Err(DetectorError::Corrupt(msg)) => assert!(msg.contains("parse"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_file_rejected_as_corrupt() {
        let path = tmp("corrupt.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(matches!(load_model(&path), Err(DetectorError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_model(Path::new("/definitely/not/here.json")),
            Err(DetectorError::Io(_))
        ));
    }

    #[test]
    fn save_does_not_leave_temp_files() {
        let (model, _) = trained_model();
        let path = tmp("clean.json");
        save_model(&model, &path).unwrap();
        let dir = path.parent().unwrap();
        let strays: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("aero_persist_") && n.ends_with(".tmp"))
            .collect();
        assert!(strays.is_empty(), "leftover temp files: {strays:?}");
        std::fs::remove_file(&path).ok();
    }
}
