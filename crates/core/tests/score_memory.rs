//! Memory gate for offline scoring and calibration: the bytes a pass holds
//! beyond the buffers sized by the series on purpose must not grow with the
//! series.
//!
//! `Aero::score` runs each scoring window end to end and folds it into the
//! score matrix at once, so it holds a pool's width of windows (one here),
//! never the whole series. A counting `#[global_allocator]` tracks live heap
//! bytes and their high-water mark; the gate scores a series and one 4×
//! longer and compares the high-water marks above the live bytes at the
//! start of the call.
//!
//! Each length is measured on its second pass, after a first pass at the
//! same length has warmed the tensor workspace pool. The pool then serves
//! the output matrix and the scaled input copy from buffers already live
//! at the start of the call, so what the measured peak shows is the pass's
//! working set. Calibration (`OnlineAero::new`) also holds, by design, its
//! score matrix (compacted in place for POT) and POT's one selection buffer
//! of the finite scores; the gate subtracts exactly those two and holds the
//! rest to the same bound.
//!
//! A dedicated test binary with one test: the allocator is process-global
//! and the pool is pinned to one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use aero_core::online::OnlineAero;
use aero_core::{Aero, AeroConfig, Detector, StarDelta};
use aero_datagen::SyntheticConfig;
use aero_evt::PotConfig;
use aero_timeseries::MultivariateSeries;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Tracking;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: delegates every operation verbatim to `System`; the counters are
// relaxed atomics with no other side effects.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        out
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Bytes `f` held at its high-water mark above the live bytes at its start,
/// with its result kept alive until the mark is read.
fn peak_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed) - base, out)
}

/// Working-set slack for bookkeeping that may differ between the two
/// lengths (the POT excesses, `Vec` growth rounding). A pass that kept its
/// windows would exceed it many times over at these sizes.
const SLACK: usize = 16 << 10;

#[test]
fn scoring_and_calibration_peaks_do_not_grow_with_the_series() {
    aero_parallel::set_max_threads(1);

    let mut data = SyntheticConfig::middle();
    data.train_len = 200;
    data.test_len = 960;
    let ds = data.build();
    let long = ds.test;
    let short = long.split_at(long.len() / 4).expect("split").0;
    let n = long.num_variates();

    let mut cfg = AeroConfig::tiny();
    cfg.max_epochs = 1;
    let mut model = Aero::new(cfg).expect("config");
    model.fit(&ds.train).expect("fit");

    // Offline scoring.
    let mut score_peak = |series: &MultivariateSeries| {
        model.score(series).expect("warm-up score");
        peak_of(|| model.score(series).expect("score")).0
    };
    let (short_peak, long_peak) = (score_peak(&short), score_peak(&long));
    println!(
        "score: peak beyond start {short_peak} B at {} frames, {long_peak} B at {}",
        short.len(),
        long.len()
    );
    assert!(
        long_peak <= short_peak + SLACK,
        "Aero::score working set grew with the series: {short_peak} B at {} frames, \
         {long_peak} B at {} frames",
        short.len(),
        long.len()
    );

    // Calibration, on detectors assembled from the trained trunk (bitwise
    // the same model) so each pass starts from an untouched detector.
    let backbone = model.backbone().expect("backbone");
    let deltas: Vec<StarDelta> = (0..n).map(|v| model.star_delta(v).expect("delta")).collect();
    let warm = model.warmup();
    let calibrate_peak = |series: &MultivariateSeries| {
        let assemble = || Aero::from_backbone(&backbone, &deltas).expect("assemble");
        drop(OnlineAero::new(assemble(), series, PotConfig::default()).expect("warm-up"));
        let detector = assemble();
        let (peak, online) =
            peak_of(|| OnlineAero::new(detector, series, PotConfig::default()).expect("calibrate"));
        drop(online);
        // By design: the score matrix (a fresh pool-class buffer, since POT
        // takes it over) and POT's selection buffer of the post-warmup scores.
        let cells = n * series.len();
        let by_design = cells.next_power_of_two() * 4 + n * (series.len() - warm) * 4;
        peak.saturating_sub(by_design)
    };
    let (short_peak, long_peak) = (calibrate_peak(&short), calibrate_peak(&long));
    println!(
        "calibration: peak beyond design {short_peak} B at {} frames, {long_peak} B at {}",
        short.len(),
        long.len()
    );
    assert!(
        long_peak <= short_peak + SLACK,
        "OnlineAero::new working set grew with the series: {short_peak} B at {} frames, \
         {long_peak} B at {} frames beyond its score matrix and POT buffer",
        short.len(),
        long.len()
    );
}
