#!/bin/sh
# Docs lint: every Go package must carry a doc comment. Run by check.sh;
# exits non-zero listing each violation. OPERATIONS.md's metric tables are
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

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "docs lint: OK"
