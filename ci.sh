#!/usr/bin/env bash
# Local mirror of the CI pipeline (.github/workflows/ci.yml): fmt,
# clippy, xtask lint, prepare-tlc, the workspace tests at two worker
# counts and the benchmark package tests.
# CI-only steps, not run here: the recovery bench (--bin recovery),
# whose BENCH_recovery.json CI uploads as an artifact, and the lint / tlc
# report uploads.
# All steps run offline: every dependency is vendored in shims/.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

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

# xtask is std-only and reads no PREPARE_WORKERS: its self-tests (two of
# which lint the whole workspace) already ran in the pass above.
echo "==> cargo test (PREPARE_WORKERS=4, sharded engine)"
PREPARE_WORKERS=4 cargo test --offline --quiet --workspace --exclude xtask

# benchmark/ is its own workspace, so --workspace never compiles it; its
# tests are what notices a change to the API the benchmark pins.
echo "==> benchmark package tests"
cargo test --offline --quiet --manifest-path benchmark/Cargo.toml

echo "ci.sh: all checks passed"
