#!/usr/bin/env bash
# Local mirror of the CI pipeline (.github/workflows/ci.yml): fmt,
# clippy, rustdoc, xtask lint, prepare-tlc, the workspace tests at two
# worker counts, the benchmark package tests, one traced crash_recovery
# run and one untraced fleet_storm run of the benchmark, and the
# fingerprint-gated recovery bench (--bin recovery), its JSON written to
# target/BENCH_recovery.json.
# CI-only steps, not run here: the upload of CI's BENCH_recovery.json as
# an artifact, and the lint / tlc report uploads.
# All steps run offline: every dependency is vendored in shims/.
# rustc and clippy enforce what the xtask lint no longer repeats: the
# workspace [lints] tables in Cargo.toml (unsafe_code forbidden, missing_docs
# warned, in every member; unwrap_used, expect_used, panic, todo,
# unimplemented and unreachable denied outside test code, each remaining
# site under a reasoned #[expect]; ref_as_ptr and borrow_as_ptr denied) and
# clippy.toml's disallowed-types (HashMap, HashSet, Instant, SystemTime,
# ThreadId) and disallowed-methods (Instant/SystemTime now and elapsed,
# thread::current, as_ptr/as_mut_ptr on Vec, slice and str, Arc/Rc
# as_ptr), each legitimate read under a reasoned #[expect]; checkpoint
# coverage is a compile error, because every struct serializer destructures
# `self` without `..`.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
# -D warnings turns the workspace missing_docs warning, clippy.toml's
# disallowed-types and disallowed-methods hits (hash collections, host
# clocks, thread ids, address reads) and any unfulfilled #[expect] into
# errors.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
# A dangling or private intra-doc link fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo xtask lint"
# Build untimed, then hold the lint itself (which prints per-rule
# finding counts and its own wall time) to a 10-second budget.
cargo build --offline --quiet --package xtask
lint_out="$(cargo run --offline --quiet --package xtask -- lint --json target/lint-report.json)" || {
  echo "$lint_out"
  exit 1
}
echo "$lint_out"
lint_ms="$(echo "$lint_out" | sed -n 's/^lint wall time: \([0-9]*\) ms$/\1/p')"
if [ -z "$lint_ms" ] || [ "$lint_ms" -gt 10000 ]; then
  echo "ci.sh: lint wall-time budget exceeded (${lint_ms:-unreported} ms > 10000 ms)" >&2
  exit 1
fi

echo "==> prepare-tlc temporal property checker"
# One invocation with PREPARE_WORKERS unset replays the pinned suite at
# workers 1 and 4, checks cross-count trace invariance, and sweeps the
# exhaustive fault-interleaving explorer. The checker shares the lint's
# 10-second tooling budget: lint_ms + tlc_ms must stay under 10 000 ms.
cargo build --offline --quiet --release --package prepare-tlc
tlc_out="$(env -u PREPARE_WORKERS cargo run --offline --quiet --release --package prepare-tlc -- --report target/tlc-report.txt)" || {
  echo "$tlc_out"
  exit 1
}
echo "$tlc_out"
tlc_ms="$(echo "$tlc_out" | sed -n 's/^tlc wall time: \([0-9]*\) ms$/\1/p')"
if [ -z "$tlc_ms" ] || [ "$((lint_ms + tlc_ms))" -gt 10000 ]; then
  echo "ci.sh: tooling wall-time budget exceeded (lint ${lint_ms} ms + tlc ${tlc_ms:-unreported} ms > 10000 ms)" >&2
  exit 1
fi

echo "==> cargo test (PREPARE_WORKERS=1, sequential engine)"
PREPARE_WORKERS=1 cargo test --offline --quiet --workspace

# The second pass runs only the crates whose sources or tests name
# ParConfig, prepare_par or PREPARE_WORKERS; the rest never see a worker
# count and already ran in the pass above: xtask, prepare-markov,
# prepare-tan, prepare-metrics, prepare-apps, prepare-cloudsim (which
# names one only in a doc comment) and the proptest and rand shims.
echo "==> cargo test (PREPARE_WORKERS=4, sharded engine)"
PREPARE_WORKERS=4 cargo test --offline --quiet --workspace --exclude xtask \
  --exclude prepare-markov --exclude prepare-tan --exclude prepare-metrics \
  --exclude prepare-apps --exclude prepare-cloudsim --exclude proptest --exclude rand

# benchmark/ is its own workspace, so --workspace never compiles it; its
# tests are what notices a change to the API the benchmark pins.
echo "==> benchmark package tests"
cargo test --offline --quiet --manifest-path benchmark/Cargo.toml

# One traced pass of the closed loop that seals and crashes: it exits
# non-zero when a recovery does not restore the pre-crash
# model_fingerprint() or the digest differs between passes, and its
# shadow restores every crash image through Checkpoint::read. Release
# only: a debug pass takes minutes.
echo "==> crash_recovery smoke (benchmark, traced, 1 s)"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload crash_recovery --seed 7 --seconds 1 --trace 1 > /dev/null

# One untraced run of the only workload where chaos delivers readings
# late or stale, sealing every 60 rounds. 5 s fit two passes (1 s fits
# one), so it exits non-zero when their digests differ.
echo "==> fleet_storm smoke (benchmark, untraced, 5 s)"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload fleet_storm --seed 7 --seconds 5 --trace 0 > /dev/null

# The recovery bench: checkpoint size and serialize / restore time at
# 256, 1 024 and 4 096 VMs, and journal replay time, each number gated on
# the restored model_fingerprint() (a mismatch exits non-zero). It is the
# only 4 096-VM round trip through the checkpoint codec. It runs from
# target/, so its BENCH_recovery.json lands there and the committed one
# stays as it is.
echo "==> recovery bench (fingerprint-gated, JSON in target/)"
cargo build --offline --quiet --release --package prepare-bench --bin recovery
(cd target && cargo run --offline --quiet --release --package prepare-bench --bin recovery > /dev/null)

echo "ci.sh: all checks passed"
