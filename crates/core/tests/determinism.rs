//! Thread-count invariance: fit + score must be **bitwise identical** at 1
//! and 4 worker threads.
//!
//! The parallel substrate promises determinism by construction: gradient
//! shards have fixed boundaries (independent of the thread count), shard
//! buffers merge into the store in shard order, and every GEMM accumulates
//! in a fixed per-element order. This test pins the end-to-end consequence
//! on a scaled-down SyntheticMiddle (Table I) dataset — same 24 variates
//! and noise profile, shorter span so two full fits stay test-sized.
//!
//! Scoring is then pinned per graph mode: the stateless modes fan windows
//! out in pool-width groups and fold each into the score matrix as its
//! group finishes, the EWMA mode threads one builder through the windows
//! serially; `score` must come out bitwise the same at 1 and 4 threads in
//! all three.
//!
//! Kept as the only test in this binary: the thread override is process
//! global, so no other `#[test]` may race it.

use aero_core::{save_model, Aero, AeroConfig, Detector, GraphMode};
use aero_datagen::SyntheticConfig;
use aero_tensor::Matrix;
use aero_timeseries::Dataset;

fn middle_scaled() -> Dataset {
    let mut cfg = SyntheticConfig::middle();
    cfg.train_len = 200;
    cfg.test_len = 200;
    cfg.build()
}

fn fitted(ds: &Dataset, graph_mode: GraphMode) -> Aero {
    let mut cfg = AeroConfig::tiny();
    cfg.max_epochs = 2;
    cfg.graph_mode = graph_mode;
    let mut model = Aero::new(cfg).expect("valid config");
    model.fit(&ds.train).expect("fit");
    model
}

fn fit_and_score(ds: &Dataset, tag: &str) -> (Matrix, Vec<u8>) {
    let mut model = fitted(ds, GraphMode::WindowWise);
    let scores = model.score(&ds.test).expect("score");
    let path = std::env::temp_dir()
        .join(format!("aero_determinism_{}_{}.json", tag, std::process::id()));
    save_model(&model, &path).expect("checkpoint");
    let bytes = std::fs::read(&path).expect("read checkpoint");
    let _ = std::fs::remove_file(&path);
    (scores, bytes)
}

#[test]
fn fit_and_score_are_bitwise_identical_across_thread_counts() {
    let ds = middle_scaled();

    aero_parallel::set_max_threads(1);
    let (scores_1, model_1) = fit_and_score(&ds, "t1");

    aero_parallel::set_max_threads(4);
    let (scores_4, model_4) = fit_and_score(&ds, "t4");
    aero_parallel::set_max_threads(1);

    assert_eq!(model_1, model_4, "trained parameters diverged across thread counts");
    assert_eq!(scores_1, scores_4, "anomaly scores diverged across thread counts");

    for mode in [
        GraphMode::WindowWise,
        GraphMode::StaticComplete,
        GraphMode::DynamicEwma { beta: 0.9 },
    ] {
        let mut model = fitted(&ds, mode);
        let scores_1 = model.score(&ds.test).expect("score at 1 thread");
        aero_parallel::set_max_threads(4);
        let scores_4 = model.score(&ds.test).expect("score at 4 threads");
        aero_parallel::set_max_threads(1);
        assert_eq!(
            scores_1.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scores_4.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{mode:?} scores diverged across thread counts"
        );
    }
}
