#!/bin/sh
# Docs lint: every Go package must carry a doc comment, and every test,
# benchmark or fuzz target the user-facing docs name must exist. Run by
# check.sh; exits non-zero listing each violation. OPERATIONS.md's metric tables are
# checked by go test instead: TestOperationsMetricTables in internal/service
# fails when they differ from the declared series.
set -eu
cd "$(dirname "$0")/.."

fail=0

# Package comments: each directory containing non-test Go files must have
# at least one file whose doc comment starts "// Package ..." (libraries) or
# "// Command ..." (main packages).
for dir in $(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' \
	-exec dirname {} \; | sort -u); do
	if ! grep -l '^// \(Package\|Command\) ' "$dir"/*.go >/dev/null 2>&1; then
		echo "lint: $dir has no package doc comment (want '// Package ...' or '// Command ...')" >&2
		fail=1
	fi
done

# Named tests: a Test…, Benchmark… or Fuzz… function that README.md,
# DESIGN.md, EXPERIMENTS.md or OPERATIONS.md names must be defined by some
# _test.go, so no instruction runs a test that was deleted or renamed.
# CHANGES.md (history) and ROADMAP.md (plans) may name tests that are gone.
defined=$(find . -name '*_test.go' ! -path './.git/*' -exec cat {} + |
	sed -n 's/^func \(\(Test\|Benchmark\|Fuzz\)[A-Za-z0-9_]*\)(.*/\1/p' | sort -u)
for doc in README.md DESIGN.md EXPERIMENTS.md OPERATIONS.md; do
	for name in $(grep -oE '\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' "$doc" | sort -u); do
		if ! printf '%s\n' "$defined" | grep -qx "$name"; then
			echo "lint: $doc names $name, which no _test.go defines" >&2
			fail=1
		fi
	done
done

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "docs lint: OK"
