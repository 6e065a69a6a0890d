#!/usr/bin/env sh
# Tier-1 verification gate (see ROADMAP.md).
#
# Jobs:
#   1. release build of the whole workspace
#   2. full test suite of every workspace crate, in release. `--workspace`
#      is required: the root manifest is both a package and a workspace
#      with no default-members, so a bare `cargo test` runs only the root
#      package's tests
#   3. streaming-robustness integration suite (fault injection, degraded
#      input, crash-safe persistence) — explicitly, so a filtered test run
#      can't silently skip it
#   4. crash-recovery chaos suite: kill-and-resume must be bitwise
#      identical to an uninterrupted run; panicking/deadline-blown shards
#      quarantine their star while the rest of the frame keeps streaming
#   5. thread-count determinism: fit + score bitwise identical at 1 vs 4
#      worker threads, plus blocked-GEMM == naive-reference property tests
#   6. kernel equivalence: SIMD backends (AVX2/AVX-512/NEON, whichever the
#      host supports) bitwise identical to the scalar fallback across every
#      dispatched kernel, plus the AERO_FORCE_SCALAR env override
#   7. scalar-fallback pass: the tensor suite re-runs with
#      AERO_FORCE_SCALAR=1 so the scalar dispatch path stays green even on
#      hosts where detection would always pick SIMD
#   8. streaming allocation gate: steady-state OnlineAero::push serves every
#      tensor buffer and graph tape from the workspace pool (zero misses,
#      counting-allocator harness)
#   9. overload smoke: seeded 4x-realtime bursts keep queue depth and the
#      work budget bounded, shed accounting reconciles, suspects are never
#      shed, and the governed verdict stream is bitwise identical across
#      thread counts and WAL kill-resume
#  10. fleet isolation: the shared-nothing shard suite (chaos kill mid-night,
#      bitwise shard resume, WAL identity rejection, deterministic
#      routing/rebalancing) plus a 4-shard CLI burst smoke with one injected
#      shard kill — the killed shard must restart from its own WAL while the
#      other shards keep streaming
#  11. live migration: the WAL-fenced two-phase star-handoff chaos suite
#      (kill -9 at every phase boundary — pre-fence, post-fence, pre-commit,
#      post-commit — followed by --resume must be bitwise identical to an
#      uninterrupted night), plus a 4-shard CLI smoke: --migrate-live with a
#      mid-night simulated crash, then --resume to finish the night, then
#      `aero wal verify` scrubbing every surviving shard directory
#  12. batched equivalence: the batched cross-star Stage-1 path (the only
#      production inference path) is bitwise identical to the per-star tape
#      path that an installed chaos hook selects, across star counts, thread
#      counts, kernel backends, and score-mode mixes; plus a 2-shard governed
#      CLI stream smoke
#  13. resident service: wire-codec adversarial property suite (garbage,
#      torn frames, flipped bits, hostile lengths — typed errors, bounded
#      allocation), then real-process end-to-end runs of `aero serve` +
#      `aero loadgen` over loopback TCP — kill -9 mid-night + --resume must
#      be bitwise identical to an uninterrupted run, seeded wire faults
#      across concurrent tenant connections must never poison the detector,
#      and the status/drain endpoints must answer on the same wire
#  14. backbone reassembly: a detector rebuilt from the shared backbone plus
#      per-star deltas scores bitwise identical to the monolithic model
#  15. benchmark harness smoke run (keeps scripts/bench.sh wired)
#  16. repository benchmark smoke test: every aerobench workload runs end to
#      end at seconds scale and passes its own consistency checks
#  17. clippy -D warnings on the full workspace (the streaming modules
#      additionally deny unwrap/expect via their own inner lint attrs)
set -eu

cd "$(dirname "$0")/.."

echo "==> tier-1: release build"
cargo build --release

echo "==> tier-1: workspace tests"
cargo test -q --release --workspace

echo "==> tier-1: streaming robustness"
cargo test -q -p aero-core --test fault_injection --test persistence_robustness

echo "==> tier-1: crash recovery"
cargo test -q -p aero-core --test crash_recovery

echo "==> tier-1: thread-count determinism"
cargo test -q -p aero-core --test determinism
cargo test -q -p aero-tensor --test gemm_equivalence

echo "==> tier-1: kernel equivalence (SIMD == scalar, bitwise)"
cargo test -q -p aero-tensor --test kernel_equivalence --test force_scalar_env

echo "==> tier-1: scalar-fallback pass (AERO_FORCE_SCALAR=1)"
AERO_FORCE_SCALAR=1 cargo test -q -p aero-tensor

echo "==> tier-1: streaming allocation gate (workspace pool, zero misses)"
cargo test -q -p bench --test alloc_streaming

echo "==> tier-1: overload smoke (burst admission, shedding, ladder)"
cargo test -q -p aero-core --test overload

echo "==> tier-1: fleet isolation (shard chaos, bitwise resume, routing)"
cargo test -q -p aero-core --test fleet
fleet_tmp="$(mktemp -d)"
trap 'rm -rf "$fleet_tmp"' EXIT
cargo run --release -q -p aero-cli --bin aero -- generate \
    --preset tiny --seed 41 --out "$fleet_tmp/data" > /dev/null
cargo run --release -q -p aero-cli --bin aero -- stream \
    --data "$fleet_tmp/data" --shards 4 --burst 41 \
    --wal "$fleet_tmp/wal" --rebalance-every 64 \
    --kill-shard 2 --kill-after 40 --probe-after 4 > /dev/null

echo "==> tier-1: live migration (two-phase handoff chaos + CLI smoke)"
cargo test -q -p aero-core --test migration
cargo run --release -q -p aero-cli --bin aero -- stream \
    --data "$fleet_tmp/data" --shards 4 --burst 23 \
    --wal "$fleet_tmp/wal_migrate" --rebalance-every 48 \
    --kill-after 120 --migrate-live > /dev/null
cargo run --release -q -p aero-cli --bin aero -- stream \
    --data "$fleet_tmp/data" --shards 4 --burst 23 \
    --wal "$fleet_tmp/wal_migrate" --rebalance-every 48 \
    --resume --migrate-live > "$fleet_tmp/migrate_summary.json"
grep -q '"stars_moved"' "$fleet_tmp/migrate_summary.json"
grep -q '"migrations_rolled_back"' "$fleet_tmp/migrate_summary.json"
for shard_dir in "$fleet_tmp"/wal_migrate/shard-*; do
    cargo run --release -q -p aero-cli --bin aero -- \
        wal verify "$shard_dir" > /dev/null
done

echo "==> tier-1: batched equivalence (batched == hook-selected per-star path)"
cargo test -q -p aero-core --test batched
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
