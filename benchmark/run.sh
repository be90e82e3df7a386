#!/usr/bin/env bash
# The one command: build the benchmark package, then run it.
#
#   benchmark/run.sh                      every workload, untraced then traced;
#                                         one "workload metric value unit" line
#                                         per metric, benchmark/out/results.json
#   benchmark/run.sh --smoke              the same on small corpora, with every
#                                         reference checked by the naive evaluator
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one run; last stdout line is JSON
#   benchmark/run.sh --repeat <k>         k seeds per workload: quartile spread
#                                         of each end-to-end metric vs its bound
#   benchmark/run.sh --compare a.json b.json
#                                         relative difference per metric; exits 1
#                                         when an end-to-end bound is breached
#
# Run it from the repository root. The build is offline and lands in
# $CARGO_TARGET_DIR when that is set, else in target/benchmark.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$(dirname "$here")/target/benchmark}"

# Keep freed memory in the process. With glibc's defaults the restart
# cycles hand their heap back to the kernel and fault ~1500 fresh pages in
# again on every cycle once the heap has been through the durable mix; what
# a page fault costs is the host's business, and it moved open_p50_ms by a
# quarter from run to run. The same settings hold on both sides of any
# comparison; proc.minor_faults_per_op still counts what is left.
export MALLOC_TRIM_THRESHOLD_=1073741824 MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TOP_PAD_=67108864

# Cargo's chatter goes to stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/rox-benchmark" --out "$here/out" "$@"
