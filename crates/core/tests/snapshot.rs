//! Shard snapshot gate: export → encode → decode → install is lossless.
//!
//! A governed shard streams the first half of a seeded burst night, drains
//! its queue with ordinary polls (shedding and the ladder live), and exports
//! a [`ShardSnapshot`]. The snapshot goes through the byte codec and is
//! installed into a freshly built shard of the same membership. Both shards
//! then serve the rest of the night: every verdict, the health report, the
//! threshold and a final re-export must be bitwise equal. Truncated or
//! bit-flipped encodings must decode to a typed
//! [`DetectorError::Corrupt`], never a panic.

use aero_core::{
    Aero, AeroConfig, DegradePolicy, Detector, DetectorError, FallbackScorer, GovernedVerdict,
    OnlineAero, OverloadPolicy, ShardSnapshot, StreamGovernor,
};
use aero_datagen::{LoadProfile, SyntheticConfig};
use aero_evt::PotConfig;
use aero_timeseries::Dataset;

fn night() -> Dataset {
    let mut cfg = SyntheticConfig::tiny(20240809);
    cfg.anomaly_segments = 3;
    cfg.build()
}

/// Small queue, fast ladder: the bursts shed and step the ladder.
fn tight_policy() -> OverloadPolicy {
    OverloadPolicy {
        queue_capacity: 8,
        high_watermark: 4,
        low_watermark: 1,
        down_streak: 2,
        up_streak: 4,
        suspect_hold: 32,
        fallback_threshold: 3.0,
        tenant_quota: None,
    }
}

/// A low POT level, so refits succeed on the thin score history a shedding
/// shard keeps.
const POT: PotConfig = PotConfig {
    level: 0.9,
    q: 1e-3,
};

/// Refits on, so the threshold and the refit history are live state.
fn refit_policy() -> DegradePolicy {
    DegradePolicy {
        refit_interval: 16,
        refit_window: 1024,
        ..DegradePolicy::default()
    }
}

/// One seeded burst night as an event tape: `Some(i)` offers source frame
/// `i`, `None` is one service poll.
fn tape(seed: u64, ticks: usize) -> Vec<Option<usize>> {
    let mut tape = Vec::new();
    let mut next = 0usize;
    for arrivals in LoadProfile::burst_night(seed, ticks).arrivals() {
        for _ in 0..arrivals {
            tape.push(Some(next));
            next += 1;
        }
        tape.push(None);
    }
    tape
}

/// Everything observable about a verdict, floats as raw bits.
fn fingerprint(out: &GovernedVerdict) -> Vec<u64> {
    let mut acc = vec![out.verdict.frame as u64, out.verdict.timestamp.to_bits()];
    for (v, star) in out.verdict.stars.iter().enumerate() {
        acc.push(u64::from(star.score.to_bits()));
        acc.push(
            u64::from(star.anomalous)
                | (u64::from(out.shed[v]) << 1)
                | ((out.levels[v] as u64) << 2)
                | ((out.classes[v] as u64) << 8)
                | ((star.status as u64) << 16),
        );
    }
    acc
}

/// Runs `events` through `gov`, collecting verdict fingerprints.
fn serve(gov: &mut StreamGovernor, ds: &Dataset, events: &[Option<usize>]) -> Vec<Vec<u64>> {
    let n = ds.num_variates();
    let base = *ds.train.timestamps().last().expect("non-empty train");
    let mut out = Vec::new();
    for event in events {
        match event {
            Some(i) => {
                let frame: Vec<f32> = (0..n).map(|v| ds.test.get(v, i % ds.test.len())).collect();
                gov.offer(base + 1.0 + *i as f64, &frame).expect("offer");
            }
            None => {
                if let Some(v) = gov.poll().expect("poll") {
                    out.push(fingerprint(&v));
                }
            }
        }
    }
    out.extend(gov.drain().expect("drain").iter().map(fingerprint));
    out
}

fn snapshot(gov: &StreamGovernor) -> ShardSnapshot {
    let n = gov.online().num_variates() as u32;
    ShardSnapshot {
        shard: 0,
        members: (0..n).collect(),
        detector: gov.online().export_snapshot(),
        governor: gov.export_snapshot().expect("export"),
    }
}

/// A fresh shard over the same membership; `state` installed when given.
fn shard(model: Aero, ds: &Dataset, state: Option<&ShardSnapshot>) -> StreamGovernor {
    let mut online =
        OnlineAero::with_policy(model, &ds.train, POT, refit_policy()).expect("calibration");
    if let Some(s) = state {
        online
            .install_snapshot(&s.detector)
            .expect("install detector state");
    }
    let mut gov = StreamGovernor::with_policy(online, tight_policy()).expect("policy");
    gov.set_fallback(Some(FallbackScorer::new(|w| {
        w.last().copied().unwrap_or(0.0).abs()
    })));
    if let Some(s) = state {
        gov.install_snapshot(&s.governor)
            .expect("install governor state");
    }
    gov
}

fn restored_shard_serves_the_rest_of_the_night_bitwise(adapter_rank: usize) {
    let ds = night();
    let cfg = AeroConfig {
        max_epochs: 2,
        adapter_rank,
        ..AeroConfig::tiny()
    };
    let mut model = Aero::new(cfg).expect("valid tiny config");
    model.fit(&ds.train).expect("training the tiny model");
    let backbone = model.backbone().expect("backbone");
    let deltas: Vec<_> = (0..ds.num_variates())
        .map(|v| model.star_delta(v).expect("star delta"))
        .collect();
    let fresh = || Aero::from_backbone(&backbone, &deltas).expect("reassembly");

    let events = tape(5, 192);
    let (first, rest) = events.split_at(events.len() / 2);
    let mut original = shard(fresh(), &ds, None);
    serve(&mut original, &ds, first);
    let exported = snapshot(&original);
    let health = original.online().health();
    assert!(
        health.overload.ladder_steps_down > 0,
        "the burst never stepped the ladder"
    );
    assert!(health.overload.star_sheds > 0, "the burst never shed");
    assert!(
        health.threshold_refits > 0,
        "no refit before the export: {health:?}"
    );

    let decoded = ShardSnapshot::decode(&exported.encode()).expect("decode");
    assert_eq!(decoded, exported, "codec round trip");
    let mut restored = shard(fresh(), &ds, Some(&decoded));

    let a = serve(&mut original, &ds, rest);
    let b = serve(&mut restored, &ds, rest);
    assert!(!a.is_empty());
    assert_eq!(a.len(), b.len(), "verdict count");
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "verdict {i} diverged after install");
    }
    assert_eq!(original.online().health(), restored.online().health());
    assert_eq!(original.online().threshold(), restored.online().threshold());
    assert_eq!(
        original.online().supervisor().stats(),
        restored.online().supervisor().stats()
    );
    assert_eq!(
        snapshot(&original),
        snapshot(&restored),
        "end-of-night state"
    );
    // Control: without the install, a fresh shard serves a different night.
    let mut cold = shard(fresh(), &ds, None);
    assert_ne!(
        serve(&mut cold, &ds, rest),
        a,
        "the snapshot carried no state"
    );
}

#[test]
fn restored_shard_matches_the_exported_one_bitwise() {
    restored_shard_serves_the_rest_of_the_night_bitwise(0);
}

#[test]
fn restored_shard_with_adapter_heads_matches_bitwise() {
    restored_shard_serves_the_rest_of_the_night_bitwise(2);
}

#[test]
fn damaged_snapshots_decode_to_typed_errors() {
    let ds = night();
    let mut model = Aero::new(AeroConfig {
        max_epochs: 1,
        ..AeroConfig::tiny()
    })
    .expect("config");
    model.fit(&ds.train).expect("training the tiny model");
    let mut gov = shard(model, &ds, None);
    serve(&mut gov, &ds, &tape(9, 24));
    let bytes = snapshot(&gov).encode();
    assert!(ShardSnapshot::decode(&bytes).is_ok());
    let corrupt = |b: &[u8]| matches!(ShardSnapshot::decode(b), Err(DetectorError::Corrupt(_)));
    for len in 0..bytes.len() {
        assert!(corrupt(&bytes[..len]), "truncated to {len} bytes");
    }
    let mut extended = bytes.clone();
    extended.push(0);
    assert!(corrupt(&extended), "trailing byte");
    for i in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[i] ^= 1 << (i % 8);
        assert!(corrupt(&flipped), "bit flip in byte {i}");
    }
    // A governor with queued frames refuses to export.
    let n = ds.num_variates();
    let frame: Vec<f32> = (0..n).map(|v| ds.test.get(v, 0)).collect();
    gov.offer(1e9, &frame).expect("offer");
    assert!(matches!(
        gov.export_snapshot(),
        Err(DetectorError::Invalid(_))
    ));
}
