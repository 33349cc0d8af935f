#!/bin/bash
# Non-test Go lines outside benchmark/: the size of the program the north
# star in ROADMAP.md tracks.
#
#   scripts/loc.sh
#
# Counts every line of every *.go file under the repository root, except
# files under benchmark/ (its own module) and *_test.go files, and prints the
# total. Run from anywhere; it counts the checkout it sits in.
set -euo pipefail

cd "$(dirname "$0")/.."
find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l
