//! Fig. 10 — parameter sensitivity: short window ω, head count, encoder
//! layers, and long window W, with F1 and train/calibrate/test time per
//! setting.
//!
//! Usage: `cargo run -p bench --release --bin fig10_sensitivity`
//! (runs on SyntheticMiddle; `--paper` sweeps the paper's exact grids)

use aero_core::Aero;
use aero_datagen::SyntheticConfig;
use bench::{run_one, Profile};

fn main() {
    let profile = Profile::from_args();
    let paper = profile == Profile::Paper;
    let ds = profile.prepare(&SyntheticConfig::middle().build());
    let base = profile.aero_config();

    let sweep = |name: &str, configs: Vec<(String, aero_core::AeroConfig)>| {
        println!("\nFig. 10 — sensitivity to {name}\n");
        println!(
            "{:<12} {:>8} {:>12} {:>14} {:>12}",
            name, "F1 (%)", "train (s)", "calibrate (s)", "test (s)"
        );
        for (label, cfg) in configs {
            match Aero::new(cfg) {
                Ok(mut model) => match run_one(&mut model, &ds) {
                    Ok(out) => println!(
                        "{:<12} {:>8.2} {:>12.1} {:>14.1} {:>12.1}",
                        label,
                        out.metrics.f1 * 100.0,
                        out.timing.train_secs,
                        out.timing.calibrate_secs,
                        out.timing.test_secs
                    ),
                    Err(e) => println!("{label:<12} FAILED: {e}"),
                },
                Err(e) => println!("{label:<12} invalid: {e}"),
            }
        }
    };

    // (a)/(b)/(c): short window size.
    let omegas: Vec<usize> = if paper {
        vec![20, 40, 60, 80, 100]
    } else {
        vec![10, 20, 30, 40, 50]
    };
    sweep(
        "short ω",
        omegas
            .iter()
            .map(|&o| {
                let mut c = base.clone();
                c.short_window = o;
                (format!("ω={o}"), c)
            })
            .collect(),
    );

    // (d): head count.
    sweep(
        "heads",
        [1usize, 2, 4, 8]
            .iter()
            .map(|&h| {
                let mut c = base.clone();
                c.heads = h;
                (format!("h={h}"), c)
            })
            .collect(),
    );

    // (e): encoder layers.
    sweep(
        "layers",
        [1usize, 2, 3]
            .iter()
            .map(|&l| {
                let mut c = base.clone();
                c.encoder_layers = l;
                (format!("L={l}"), c)
            })
            .collect(),
    );

    // (f): long window size.
    let windows: Vec<usize> = if paper {
        vec![100, 150, 200, 250]
    } else {
        vec![60, 80, 100, 120]
    };
    sweep(
        "long W",
        windows
            .iter()
            .map(|&w| {
                let mut c = base.clone();
                c.window = w;
                (format!("W={w}"), c)
            })
            .collect(),
    );
}
