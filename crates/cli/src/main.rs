//! `aero` — command-line anomaly detection for astronomical time series.
//!
//! ```text
//! aero generate --preset synthetic-middle --out data/
//! aero detect   --data data/ --method aero --out results/
//! aero evaluate --flags results/flags.csv --labels data/test_labels.csv
//! aero list-methods
//! ```

mod args;
mod commands;
mod netcmd;
mod night;

use args::Args;

const USAGE: &str = "aero — anomaly detection in astronomical observations (AERO, ICDE 2024)

USAGE:
    aero <COMMAND> [OPTIONS]

COMMANDS:
    generate       Generate a benchmark dataset as CSV files
                     --preset <synthetic-middle|synthetic-high|synthetic-low|
                               astroset-middle|astroset-high|astroset-low|tiny>
                     --out <dir>           output directory
                     [--seed <u64>]        override the preset seed
    detect         Train a detector and score a test series
                     --data <dir>          directory with train.csv + test.csv
                     --method <name>       detector (see list-methods)
                     --out <dir>           writes scores.csv, flags.csv, summary.txt
                     [--paper]             paper-scale hyperparameters
                     [--level <f64>]       POT initial quantile (default 0.99)
                     [--q <f64>]           POT tail probability (default 1e-3)
                     [--save-model <file>] persist the trained AERO as JSON
    stream         Replay a test series through a saved model frame-by-frame
                     --data <dir>          directory with train.csv + test.csv
                     --model <file>        checkpoint from `detect --save-model`
                     [--faults <seed>]     inject a seeded rough-night fault plan
                     [--refit-interval <n>] refit POT threshold every n frames
                     [--level <f64>]       POT initial quantile (default 0.99)
                     [--q <f64>]           POT tail probability (default 1e-3)
                     [--wal <dir>]         write-ahead-log every frame before scoring
                     [--resume]            replay the WAL in <dir> before streaming
                                           (reconstructs the exact pre-crash state)
                     [--fsync <never|segment|record>] WAL durability (default segment)
                     [--kill-after <n>]    stop abruptly after n live frames
                                           (simulated crash, for --resume demos)
                     [--burst <seed>]      deliver frames on a seeded burst
                                           schedule (4x-realtime episodes) to
                                           exercise admission control and the
                                           degradation ladder
                     [--queue-cap <n>]     admission-queue capacity (default 64);
                                           offers beyond it are rejected and the
                                           ladder degrades from half full
                     [--shards <n>]        fleet mode: partition the catalog
                                           across n shared-nothing shards (one
                                           static partition per night, keyed
                                           by --seed <u64>), each
                                           with its own detector, WAL directory
                                           (<wal>/shard-KKKK/), ladder, and
                                           breaker; drop --model (per-shard
                                           models are trained in-process and
                                           checkpointed under <wal>/models/)
                     [--probe-after <k>]   half-open breaker probe schedule for
                                           shard-level supervision: a
                                           quarantined shard gets one restart
                                           probe after k short-circuited calls
                                           (fleet mode only)
                     [--kill-shard <k>]    chaos: kill shard k after
                                           --kill-after offers; it must restart
                                           from its own WAL while the other
                                           shards keep streaming (fleet only)
    wal            Offline WAL tooling
                     aero wal verify <dir>  scrub one WAL directory: segment
                                           headers, record checksums, torn
                                           tails, sequence gaps, frame-chain
                                           breaks; prints a findings JSON and
                                           exits 1 if the log is damaged
    serve          Resident network service: length-delimited TCP ingest of
                   star-frame batches into the governed detector
                     --data <dir>          directory with train.csv (context)
                     --model <file>        checkpoint from `detect --save-model`
                     [--listen <addr>]     bind address (default 127.0.0.1:0;
                                           prints `listening on <addr>` when up)
                     [--wal/--resume/--fsync/--queue-cap/--level/--q/
                      --refit-interval]    as for `stream`; --resume replays the
                                           WAL before accepting connections
                     [--verdicts <file>]   append one line per scored verdict
                     [--quota-burst <n>]   per-tenant token-bucket burst (default 32)
                     [--quota-refill <n>]  tokens refilled per serviced poll (default 1)
                     [--read-timeout-ms <n>] socket read timeout (default 100)
                     [--idle-timeout-ms <n>] drop stalled/idle connections (default 10000)
                     [--max-conns <n>]     concurrent connection cap (default 64)
                   Runs until a client sends Drain; then stops accepting,
                   flushes admitted frames, fsyncs the WAL, and prints the
                   final summary JSON.
    loadgen        Deterministic load-generator client for `serve`
                     --connect <addr>      server address (host:port)
                     --data <dir>          directory with test.csv to send
                     [--conns <n>]         concurrent connections (default 1)
                     [--tenants <n>]       tenant lanes, conn % n (default 1)
                     [--burst <seed>]      as for `stream` (else realtime)
                     [--ticks <n>]         send at most n schedule ticks
                     [--wire-faults <seed>] inject wire-level faults (garbage,
                                           torn frames, duplicates, slow-loris)
                     [--fault-period <n>]  one fault every n batches (default 7)
                     [--resume-from-status] skip frames the server already holds
                     [--drain]             send Drain after the load completes
                     [--status]            just fetch and print the status JSON
                     [--drain-only]        just drain the server and print the
                                           final summary
    evaluate       Point-adjusted precision/recall/F1 of saved flags
                     --flags <file>        0/1 CSV from `detect`
                     --labels <file>       0/1 ground-truth CSV
    list-methods   Show the available detectors
    help           Show this message

GLOBAL OPTIONS:
    --threads <n>  Worker threads for per-variate training/scoring and large
                   GEMMs (default: AERO_THREADS env, else all logical CPUs).
                   Results are bitwise identical at any thread count.

An option that takes a value must be given one: a bare `--level` is an error
(`--level requires a value`), never a silent default.
";

fn main() {
    let args = match Args::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    match args.get_parsed::<usize>("threads", 0) {
        Ok(n) if n > 0 => aero_parallel::set_max_threads(n),
        Ok(_) => {} // not given: keep AERO_THREADS / auto-detected default
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
    let result = match args.command.as_deref() {
        Some("generate") => commands::generate(&args),
        Some("detect") => commands::detect(&args),
        Some("stream") => commands::stream(&args),
        Some("serve") => netcmd::serve_cmd(&args),
        Some("loadgen") => netcmd::loadgen(&args),
        Some("wal") => commands::wal(&args),
        Some("evaluate") => commands::evaluate(&args),
        Some("list-methods") => {
            commands::list_methods();
            Ok(())
        }
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command: {other}\n\n{USAGE}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
