#!/usr/bin/env bash
# Reproduce every committed number: the end-to-end sets in baseline.json
# (seeds 1-10 twice and seeds 101-110, interleaved), the traced tables in
# TRACE.md, and the stress probe.  Run from anywhere; takes about an hour
# and a half.
set -euo pipefail
cd "$(dirname "$0")/.."
python3 benchmarks/baseline.py
python3 benchmarks/report.py
python3 benchmarks/stress.py
