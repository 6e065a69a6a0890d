//! `offline_detect`: the paper's batch protocol (`run_detection`: fit,
//! calibrate a POT threshold on held-out training scores, score the test
//! night) repeated for the measured seconds, plus one more `score` of the
//! test night per repetition for the batch scoring rate. A set-up generates
//! the night and runs the protocol once, as a warm-up whose scores every
//! repetition must repeat bit for bit.
//!
//! Training dominates each repetition, so a training change shows here; a
//! change to streaming-only code (governor, WAL, fleet, wire) should not.
//!
//! The model is `AeroConfig::tiny()` (three epochs, below the early-stopping
//! patience, so every seed trains for the same number) on a short night:
//! one repetition takes about 0.2 s and a run holds about a hundred. With
//! the CLI's `fast()` model a repetition took 1.6 s, so each averaged over
//! the host's slow and fast stretches, and the median of a dozen moved by a
//! quarter between runs.

use std::time::Instant;

use aero_core::{run_detection, Aero, AeroConfig, Detector, OnlineAero};
use aero_datagen::SyntheticConfig;
use aero_eval::{evaluate_point_adjusted, threshold_scores};
use aero_tensor::Matrix;
use aero_timeseries::{Dataset, MultivariateSeries};

use crate::common::{fail, timed, trace_overhead_est_pct, Ctx, Report, POT};
use crate::probes::{Probes, EVERY};
use crate::stats::{median, percentile};
use crate::trace::{allocs, count_allocs};

fn dataset(ctx: &Ctx) -> Dataset {
    let (train_len, test_len) = if ctx.smoke { (300, 300) } else { (400, 300) };
    SyntheticConfig {
        seed: ctx.seed,
        train_len,
        test_len,
        ..SyntheticConfig::middle()
    }
    .build()
}

/// Bitwise equality of two score matrices.
fn same_scores(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut tr = ctx.tracer();
    let mut ds = None;
    let mut reference = None;
    let mut k = 0;
    // A set-up generates the night and runs the protocol once; that first
    // run's scores are the reference every repetition must repeat.
    while ctx.another_setup(&rep.setup_s) {
        let s = tr.begin("setup", k as u64);
        let t0 = Instant::now();
        drop(ds.take());
        let d = dataset(ctx);
        let mut model = Aero::new(AeroConfig::tiny()).map_err(fail("model"))?;
        let out = run_detection(&mut model, &d, POT).map_err(fail("run_detection"))?;
        rep.setup_s.push(t0.elapsed().as_secs_f64());
        tr.end(s);
        ds = Some(d);
        reference = Some(out.scores);
        k += 1;
    }
    let ds = ds.expect("at least one set-up");
    let reference = reference.expect("at least one set-up");
    let n = ds.num_variates();
    let scored_star_frames = (n * ds.test.len()) as f64;

    let mut score_ms = Vec::new();
    let mut f1s = Vec::new();
    let mut fit_s = Vec::new();
    let mut rescore_equal = true;
    let mut repeats_setup = true;
    let mut consistent = true;
    let mut last_model = None;
    aero_tensor::workspace::reset_stats();
    let allocs0 = allocs();
    count_allocs(ctx.trace);
    let spans0 = tr.len();
    let measured = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || (measured.elapsed().as_secs_f64() < ctx.seconds && !ctx.smoke) {
        let mut model = Aero::new(AeroConfig::tiny()).map_err(fail("model"))?;
        let s = tr.begin("run_detection", reps);
        let (out, secs) = timed(|| run_detection(&mut model, &ds, POT));
        tr.end(s);
        let out = out.map_err(fail("run_detection"))?;
        rep.latency_ms.push(secs * 1e3);
        fit_s.push(out.timing.train_secs);

        let s = tr.begin("model.score", reps);
        let (again, secs) = timed(|| model.score(&ds.test));
        tr.end(s);
        let again = again.map_err(fail("score"))?;
        score_ms.push(secs * 1e3);
        rep.closed_ms.push(secs * 1e3);
        rescore_equal &= same_scores(&again, &out.scores);
        repeats_setup &= same_scores(&out.scores, &reference);
        // The reported F1 is the one the scores and threshold imply.
        let implied = evaluate_point_adjusted(
            &threshold_scores(&out.scores, out.threshold.threshold),
            &ds.test_labels,
        )
        .f1;
        consistent &= implied.to_bits() == out.metrics.f1.to_bits()
            && out.scores.as_slice().iter().all(|s| s.is_finite());
        f1s.push(out.metrics.f1);
        reps += 1;
        last_model = Some(model);
    }
    let measured_s = measured.elapsed().as_secs_f64();
    let overhead = trace_overhead_est_pct(tr.len() - spans0, measured_s);
    count_allocs(false);
    let heap_allocs = allocs() - allocs0;
    let pool = aero_tensor::workspace::stats();
    rep.stars_per_op = scored_star_frames;
    rep.attempted = reps;
    rep.note(format!(
        "{reps} repetitions of fit + calibrate + score in {measured_s:.1} s"
    ));

    rep.check(
        "rescore_bitwise_equal",
        rescore_equal,
        "a second score of the test night repeats the first bit for bit",
    );
    rep.check(
        "fit_repeats_setup",
        repeats_setup,
        "every repetition's test scores equal the set-up run's bit for bit",
    );
    rep.check(
        "scores_threshold_f1_consistent",
        consistent,
        format!(
            "finite scores, and F1 {:.3} recomputed from scores and threshold",
            median(&f1s)
        ),
    );

    if ctx.trace {
        let model = last_model.expect("at least one repetition");
        let mut probes = Probes::of_model(ctx, &model, n)?;
        // The online layer on this model: what `stream --model` would pay
        // to calibrate it.
        let c = tr.begin("online.calibrate", 0);
        let twin = Aero::from_backbone(
            &model.backbone().map_err(fail("backbone"))?,
            &(0..n)
                .map(|v| model.star_delta(v))
                .collect::<Result<Vec<_>, _>>()
                .map_err(fail("delta"))?,
        )
        .map_err(fail("twin"))?;
        let (online, calibrate_s) = timed(|| OnlineAero::new(twin, &ds.train, POT));
        tr.end(c);
        online.map_err(fail("calibrate"))?;
        // Probe test-night windows as a stream would score them.
        let w = model.config().window;
        for (k, end) in (w - 1..ds.test.len()).step_by(EVERY).take(30).enumerate() {
            let window = MultivariateSeries::new(
                ds.test
                    .values()
                    .slice_cols(end + 1 - w, w)
                    .map_err(fail("window"))?,
                ds.test.timestamps()[end + 1 - w..=end].to_vec(),
            )
            .map_err(fail("window"))?;
            let values: Vec<f32> = (0..n).map(|v| ds.test.get(v, end)).collect();
            probes.frame(
                &mut tr,
                k as u64,
                &window,
                ds.test.timestamps()[end],
                &values,
            )?;
        }
        let calib = probes.scores(&ds.train)?;
        probes.finish(&mut tr, &mut rep.layers, &calib)?;
        let l = &mut rep.layers;
        l.set("train.fit_s", median(&fit_s));
        l.set("online.calibrate_s", calibrate_s);
        l.set("tensor.workspace_misses", pool.buffer_misses as f64);
        l.set(
            "tensor.heap_allocs_per_op",
            heap_allocs as f64 / reps as f64,
        );
        l.set("service.call_ms_p50", percentile(&score_ms, 0.5));
        l.set("service.call_ms_p99", percentile(&score_ms, 0.99));
        l.set("eval.f1", median(&f1s));
        l.set("trace.overhead_est_pct", overhead);
    }
    rep.tracer = Some(tr);
    Ok(rep)
}
