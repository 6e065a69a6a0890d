//! Shared-backbone reassembly gate (DESIGN.md §17).
//!
//! A detector rebuilt from a [`BackboneSnapshot`] plus per-star
//! [`StarDelta`]s scores the `FullAero` path **bitwise identical** to the
//! monolithic model it was split from — across seeds, adapter ranks, and
//! star subsets (property-style sweep; the workspace vendors no proptest
//! crate, so the sweep is an explicit seeded grid).

use aero_core::{Aero, AeroConfig, Detector, StarDelta};
use aero_datagen::SyntheticConfig;
use aero_timeseries::Dataset;

fn dataset(seed: u64) -> Dataset {
    SyntheticConfig::tiny(seed).build()
}

fn fit_monolithic(ds: &Dataset, seed: u64, adapter_rank: usize) -> Aero {
    let mut cfg = AeroConfig::tiny();
    cfg.max_epochs = 2;
    cfg.seed = seed;
    cfg.adapter_rank = adapter_rank;
    let mut model = Aero::new(cfg).expect("valid config");
    model.fit(&ds.train).expect("fit");
    model
}

fn split(model: &Aero, n: usize) -> (aero_core::BackboneSnapshot, Vec<StarDelta>) {
    let backbone = model.backbone().expect("trained");
    let deltas = (0..n).map(|v| model.star_delta(v).expect("in range")).collect();
    (backbone, deltas)
}

#[test]
fn reassembly_is_bitwise_equal_to_monolithic_across_seeds_and_ranks() {
    for seed in [3u64, 7, 11] {
        for rank in [0usize, 2] {
            let ds = dataset(seed);
            let mut mono = fit_monolithic(&ds, seed, rank);
            let (backbone, deltas) = split(&mono, ds.train.num_variates());
            let mut rebuilt = Aero::from_backbone(&backbone, &deltas).expect("reassemble");
            let expected = mono.score(&ds.test).expect("score mono");
            let got = rebuilt.score(&ds.test).expect("score rebuilt");
            assert_eq!(
                expected, got,
                "seed {seed} rank {rank}: reassembled scores diverged from monolithic"
            );
        }
    }
}

#[test]
fn adapted_heads_survive_the_split_bitwise() {
    // Reassembly must carry *trained* adapter state, not just the identity
    // init: push a few online steps into one head first.
    let ds = dataset(5);
    let mut mono = fit_monolithic(&ds, 5, 2);
    for _ in 0..4 {
        mono.adapt_star(1, &ds.test).expect("adapt");
    }
    let (backbone, deltas) = split(&mono, ds.train.num_variates());
    assert!(
        deltas[1].adapter.as_ref().is_some_and(|h| !h.is_identity()),
        "star 1's head should have moved off identity"
    );
    let mut rebuilt = Aero::from_backbone(&backbone, &deltas).expect("reassemble");
    assert_eq!(
        mono.score(&ds.test).expect("mono"),
        rebuilt.score(&ds.test).expect("rebuilt"),
        "adapted-head scores diverged after reassembly"
    );
}
