#!/usr/bin/env bash
# verify.sh — the repository's full verification gate, identical to CI.
# Usage: scripts/verify.sh [-short]
#   -short  trims the slow paths (stress iterations, module-load test)
set -euo pipefail
cd "$(dirname "$0")/.."

SHORT=()
if [[ "${1:-}" == "-short" ]]; then
    SHORT=(-short)
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> GOARCH=arm64 vet + build (the !amd64 intersection fallback compiles)"
GOARCH=arm64 go vet ./internal/intersect/
GOARCH=arm64 go build ./...

echo "==> lightvet ./... (findings -> lightvet-findings.json, 30s budget)"
# The full analyzer suite must finish well under 30s wall-clock on the
# whole module — it runs on every CI push, so its cost is part of the
# contract. The JSON report is uploaded as a CI artifact.
LINT_START=$(date +%s)
go run ./cmd/lightvet -json lightvet-findings.json ./...
LINT_ELAPSED=$(( $(date +%s) - LINT_START ))
if (( LINT_ELAPSED > 30 )); then
    echo "verify: FAIL — lightvet took ${LINT_ELAPSED}s, budget is 30s" >&2
    exit 1
fi

echo "==> lightvet -unused-ignores ./... (stale suppression audit)"
go run ./cmd/lightvet -unused-ignores ./...

echo "==> lint-self: go test -race ./internal/lint/..."
go test -race "${SHORT[@]}" ./internal/lint/...

echo "==> go test -count=1 -shuffle=on ./..."
go test -count=1 -shuffle=on "${SHORT[@]}" ./...

echo "==> go test -race (parallel, engine, lanes, delta, metrics, admission, labeled, server incl. soaks and enumerate-stop tests)"
# Explicit -timeout: under -race these are the slowest steps, and a hang
# should fail with goroutine dumps inside the CI job budget, not at it.
go test -race -timeout 10m "${SHORT[@]}" \
    ./internal/parallel/... ./internal/engine/... ./internal/lanes/... ./internal/delta/... ./internal/metrics/... ./internal/admission/... ./internal/labeled/... ./internal/server/...

echo "==> go test -race shared-graph regressions (snapshot isolation, labeled pipeline contract)"
SHARED_TESTS=(TestSnapshotIsolation TestLabeledMemoryBudgetContract TestLabeledReportMatchesFilteredCount TestCountLabeledRejectsUnsupportedOptions)
SHARED_RUN="^($(IFS='|'; echo "${SHARED_TESTS[*]}"))\$"
# A renamed or deleted test would make -run match nothing and this step
# pass without running it, so every listed name must exist.
SHARED_LISTED=$(go test -list "$SHARED_RUN" .)
for name in "${SHARED_TESTS[@]}"; do
    if ! grep -qx "$name" <<<"$SHARED_LISTED"; then
        echo "verify: FAIL — shared-graph test $name not found in package light" >&2
        exit 1
    fi
done
go test -race -timeout 5m -run "$SHARED_RUN" .

echo "==> lightd smoke: boot the daemon, load a graph, count + enumerate + batch over HTTP"
go run ./cmd/lightd -smoke

echo "==> chaos: go test -race -tags faultinject"
go build -tags faultinject ./...
go test -race -tags faultinject -timeout 10m "${SHORT[@]}" \
    ./internal/faultpoint/ ./internal/parallel/ ./internal/supervise/ ./internal/graph/ ./internal/engine/ ./internal/admission/ ./internal/lanes/

echo "==> fuzz smoke: FuzzCSRRoundTrip (10s)"
go test ./internal/graph/ -run FuzzCSRRoundTrip -fuzz FuzzCSRRoundTrip -fuzztime 10s

echo "==> fuzz smoke: FuzzMergeBlock (10s, AVX2 and generic paths)"
go test ./internal/intersect/ -run FuzzMergeBlock -fuzz FuzzMergeBlock -fuzztime 10s

echo "==> lightdiff differential smoke (lane, edge-delta and labeled-entry oracles on)"
if [[ ${#SHORT[@]} -gt 0 ]]; then
    go run ./cmd/lightdiff -cases 40 -quick -lanes -delta
else
    go run ./cmd/lightdiff -cases 200
fi

echo "verify: OK"
