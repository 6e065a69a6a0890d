#!/usr/bin/env sh
# Tier-1 verification gate (see ROADMAP.md).
#
# Jobs:
#   1. release build of the whole workspace
#   2. full test suite of every workspace crate, in release. `--workspace`
#      is required: the root manifest is both a package and a workspace
#      with no default-members, so a bare `cargo test` runs only the root
#      package's tests. Plus the vendored serde_json unit tests: it is the
#      only JSON writer and the checkpoint parser, and `vendor` is excluded
#      from the workspace, so they need their own manifest path
#   3. streaming-robustness integration suite (fault injection, degraded
#      input, crash-safe persistence) — explicitly, so a filtered test run
#      can't silently skip it
#   4. crash-recovery chaos suite: kill-and-resume must be bitwise
#      identical to an uninterrupted run; panicking/deadline-blown stars
#      fail the batched Stage-1 pass, fall back to per-star runs and
#      quarantine while the rest of the frame keeps streaming, bitwise as
#      if the failed star were shed;
#      plus the CLI kill/resume suite: `aero stream` and `aero stream
#      --shards` killed with --kill-after and finished with --resume must
#      print the uninterrupted night's summary, with replayed + offered
#      equal to the night length
#   5. thread-count determinism: fit + score bitwise identical at 1 vs 4
#      worker threads (score in every graph mode), plus blocked-GEMM ==
#      naive-reference property tests and the POT property: the quantile by
#      selection equals the sort-based reference bitwise on every field,
#      NaN/±inf/duplicates/±0.0 ties included; plus the calibration-tail
#      gate: score_from(series, first) equals score bitwise in columns
#      first.. in every graph mode at smoothing 1 and 3, and run_detection's
#      scores and threshold equal the protocol that scored the whole
#      training series
#   6. kernel equivalence: SIMD backends (AVX2/AVX-512/NEON, whichever the
#      host supports) bitwise identical to the scalar fallback across every
#      dispatched kernel, plus the AERO_FORCE_SCALAR env override
#   7. scalar-fallback pass: the tensor suite re-runs with
#      AERO_FORCE_SCALAR=1 so the scalar dispatch path stays green even on
#      hosts where detection would always pick SIMD
#   8. streaming allocation gate: steady-state OnlineAero::push serves every
#      tensor buffer and graph tape from the workspace pool (zero misses,
#      counting-allocator harness); plus the scoring memory gate: the peak
#      live bytes of Aero::score and OnlineAero::new calibration beyond
#      their by-design buffers do not grow when the series is 4x longer
#   9. overload smoke: seeded 4x-realtime bursts keep queue depth and the
#      work budget bounded, shed accounting reconciles, suspects are never
#      shed, and the governed verdict stream is bitwise identical across
#      thread counts and WAL kill-resume
#  10. fleet isolation: the shared-nothing shard suite (chaos kill mid-night,
#      bitwise shard resume, WAL identity rejection, deterministic
#      partition) plus a 4-shard CLI burst smoke with one injected shard
#      kill — the killed shard must restart from its own WAL while the
#      other shards keep streaming, and `aero wal verify` must then find
#      every shard directory clean; plus the shard snapshot gate: a shard
#      exported mid-night, encoded, decoded and installed into a fresh shard
#      serves the rest of the night bitwise like the original, and damaged
#      snapshot bytes decode to typed errors
#  11. batched equivalence: the batched cross-star Stage-1 forward (the only
#      Stage-1 scoring path) is bitwise identical to the tape forward, per
#      block of a perturbed module and per star of a trained detector scored
#      alone vs in the batch, across star counts, thread counts and kernel
#      backends; plus the time-embedding basis gate: both forwards built on
#      the prebuilt position basis equal the inline sin/cos formula bitwise
#      (long window, its short tail, fractional positions), and a
#      basis/deltas length mismatch is a typed shape error; plus a 2-shard
#      governed CLI stream smoke
#  12. resident service: wire-codec adversarial property suite (garbage,
#      torn frames, flipped bits, hostile lengths — typed errors, bounded
#      allocation), then real-process end-to-end runs of `aero serve` +
#      `aero loadgen` over loopback TCP — kill -9 mid-night + --resume must
#      be bitwise identical to an uninterrupted run, seeded wire faults
#      across concurrent tenant connections must never poison the detector,
#      and the status/drain endpoints must answer on the same wire
#  13. backbone reassembly: a detector rebuilt from the shared backbone plus
#      per-star deltas scores bitwise identical to the monolithic model
#  14. benchmark harness smoke run (keeps scripts/bench.sh wired)
#  15. repository benchmark smoke test: every aerobench workload runs end to
#      end at seconds scale and passes its own consistency checks
#  16. clippy -D warnings on the full workspace (the streaming modules
#      additionally deny unwrap/expect via their own inner lint attrs)
set -eu

cd "$(dirname "$0")/.."

echo "==> tier-1: release build"
cargo build --release

echo "==> tier-1: workspace tests"
cargo test -q --release --workspace
cargo test -q --release --offline --manifest-path vendor/serde_json/Cargo.toml --target-dir target

echo "==> tier-1: streaming robustness"
cargo test -q -p aero-core --test fault_injection --test persistence_robustness

echo "==> tier-1: crash recovery (chaos on the batched production path)"
cargo test -q -p aero-core --test crash_recovery
cargo test -q -p aero-cli --test stream_resume

echo "==> tier-1: thread-count determinism + calibration tail"
cargo test -q -p aero-core --test determinism
cargo test -q -p aero-tensor --test gemm_equivalence
cargo test -q -p aero-evt --test pot_equivalence
cargo test -q -p aero-core --test calibration_tail

echo "==> tier-1: kernel equivalence (SIMD == scalar, bitwise)"
cargo test -q -p aero-tensor --test kernel_equivalence --test force_scalar_env

echo "==> tier-1: scalar-fallback pass (AERO_FORCE_SCALAR=1)"
AERO_FORCE_SCALAR=1 cargo test -q -p aero-tensor

echo "==> tier-1: allocation gates (streaming zero misses, bounded scoring memory)"
cargo test -q -p bench --test alloc_streaming
cargo test -q -p aero-core --test score_memory

echo "==> tier-1: overload smoke (burst admission, shedding, ladder)"
cargo test -q -p aero-core --test overload

echo "==> tier-1: fleet isolation (shard chaos, bitwise resume, routing, snapshots)"
cargo test -q -p aero-core --test fleet --test snapshot
fleet_tmp="$(mktemp -d)"
trap 'rm -rf "$fleet_tmp"' EXIT
cargo run --release -q -p aero-cli --bin aero -- generate \
    --preset tiny --seed 41 --out "$fleet_tmp/data" > /dev/null
cargo run --release -q -p aero-cli --bin aero -- stream \
    --data "$fleet_tmp/data" --shards 4 --burst 41 \
    --wal "$fleet_tmp/wal" \
    --kill-shard 2 --kill-after 40 --probe-after 4 > /dev/null
for shard_dir in "$fleet_tmp"/wal/shard-*; do
    cargo run --release -q -p aero-cli --bin aero -- \
        wal verify "$shard_dir" > /dev/null
done

echo "==> tier-1: batched equivalence (batched == tape forward, time basis)"
cargo test -q -p aero-core --test batched
cargo test -q -p aero-nn --test time_basis
cargo run --release -q -p aero-cli --bin aero -- stream \
    --data "$fleet_tmp/data" --shards 2 --burst 17 \
    --wal "$fleet_tmp/wal_batched" > /dev/null

echo "==> tier-1: resident serve (wire codec + kill -9 resume + wire faults)"
cargo test -q -p aero-core --test wire_codec
cargo test -q -p aero-cli --test serve

echo "==> tier-1: backbone reassembly (bitwise vs monolithic)"
cargo test -q -p aero-core --test backbone

echo "==> tier-1: benchmark harness smoke"
sh scripts/bench.sh --smoke > /dev/null

echo "==> tier-1: repository benchmark smoke test (aerobench)"
cargo test -q --release --offline --manifest-path aerobench/Cargo.toml

echo "==> tier-1: lint gate"
cargo clippy -q --workspace -- -D warnings

echo "==> tier-1: OK"
