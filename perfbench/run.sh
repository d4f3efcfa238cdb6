#!/usr/bin/env bash
# Build the benchmark from source and run one workload on the shared-memory transport:
#   bash perfbench/run.sh --workload charmm_md --seed 1 --seconds 20 --trace 0
# Cargo output goes to stderr; the last line of stdout is the JSON result.  A fixed
# glibc mmap threshold keeps peak RSS tracking live memory: the default threshold moves
# with the allocation history, which made peak RSS vary by 20 % between identical runs.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec env -u CHAOS_WORKERS -u MPSIM_LEDGER MPSIM_BACKEND=shared MALLOC_MMAP_THRESHOLD_=131072 \
    "${CARGO_TARGET_DIR:-$here/target}/release/chaos-perfbench" "$@"
