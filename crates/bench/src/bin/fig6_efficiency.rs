//! Fig. 6 — model efficiency: training time per epoch and total test time
//! for every learned method on SyntheticMiddle. (SR is excluded from the
//! paper's training plot because it does not train; we report its test time
//! only, as the paper does.) Test time is the test night's scoring alone;
//! threshold calibration on the training tail is its own column, because
//! AERO scores only the windows that tail needs while the baselines score
//! the whole training series.
//!
//! Usage: `cargo run -p bench --release --bin fig6_efficiency [--paper]`

use aero_datagen::SyntheticConfig;
use bench::{full_suite, run_one, Profile};

fn main() {
    let profile = Profile::from_args();
    eprintln!("profile: {profile:?}");
    let dataset = profile.prepare(&SyntheticConfig::middle().build());

    println!("\nFig. 6 — efficiency on SyntheticMiddle ({profile:?} profile)\n");
    println!(
        "{:<10} {:>14} {:>14} {:>14}",
        "Method", "train (s)", "calibrate (s)", "test (s)"
    );
    println!("{}", "-".repeat(55));
    let mut rows = Vec::new();
    for detector in full_suite(profile).iter_mut() {
        let name = detector.name();
        match run_one(detector.as_mut(), &dataset) {
            Ok(out) => {
                println!(
                    "{:<10} {:>14.2} {:>14.2} {:>14.2}",
                    name, out.timing.train_secs, out.timing.calibrate_secs, out.timing.test_secs
                );
                rows.push((name, out.timing));
            }
            Err(e) => println!("{name:<10} FAILED: {e}"),
        }
    }
    if let Some(fastest) = rows
        .iter()
        .filter(|(n, _)| n != "SR" && n != "TM" && n != "SPOT" && n != "FluxEV")
        .min_by(|a, b| a.1.train_secs.partial_cmp(&b.1.train_secs).unwrap())
    {
        println!("\nfastest learned trainer: {}", fastest.0);
    }
}
