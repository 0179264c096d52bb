#!/usr/bin/env sh
# Tier-1+ check: everything CI (or a reviewer) needs to trust a change.
#   ./ci.sh    fmt + vet (linux & darwin) + build + tests + race + eval
#              goldens + fuzz and bench smokes
#
# Environment: CHAOS_FLIGHT_DIR overrides where the chaos e2e's
# flight-recorder JSONL artifacts land (default ci-artifacts/chaos-flight).
set -eu

cd "$(dirname "$0")"

STEP_START=0
step() {
    STEP_START=$(date +%s)
    echo "== $* =="
}
step_done() {
    echo "   (step took $(( $(date +%s) - STEP_START ))s)"
}

step "gofmt"
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi
step_done

# Vet under both first-class GOOS targets: the tree is pure Go, so a
# darwin-only breakage (build tags, syscall drift) should fail CI on linux.
step "go vet (GOOS=linux)"
GOOS=linux go vet ./...
step_done

step "go vet (GOOS=darwin)"
GOOS=darwin go vet ./...
step_done

step "go build"
go build ./...
GOOS=darwin go build ./...
step_done

step "go test"
go test ./...
step_done

# bench/ is its own module (it imports this tree through a replace), so the
# root ./... patterns above neither compile nor test it. Its smoke test
# deploys all four BENCHMARK.json topologies on loopback and checks every
# decision against the staged reference, which is also what gates a change
# to the packages it imports (noc, agg, monitor, ingest, transport).
step "bench module (go -C bench vet + smoke test)"
go -C bench vet ./... && go -C bench test .
step_done

# Whole-tree race pass. This replaces the hand-maintained package lists that
# accumulated over PRs 2-7 (transport/monitor/noc/obs/faults/ingest/trace,
# then the ingest e2e cmds, then oracle): every new concurrent package — the
# PR8 sketcher families included — is covered the day it lands instead of
# waiting for someone to remember the list. The differential-validation
# (oracle) and live-ingestion e2e suites ride along; their scenarios are
# seeded, so a failure here is a reproducible bug, not flake. EXPERIMENTS.md
# records the timing delta vs the old three-step split.
step "go test -race ./..."
go test -race ./...
step_done

# The chaos e2e suite (fault-injected NOC/monitor deployments, the
# trace-lineage e2e, and the PR9 aggregator-failover scenario) is where the
# retry, breaker and reconnect goroutines actually contend; run it under the
# race detector explicitly so a -run filter change elsewhere can't drop it. CHAOS_FLIGHT_DIR redirects the
# suite's flight-recorder JSONL to a kept directory; on failure the audit
# records are dumped so the workflow can collect them as artifacts.
step "go test -race chaos e2e"
CHAOS_FLIGHT_DIR="${CHAOS_FLIGHT_DIR:-$(pwd)/ci-artifacts/chaos-flight}"
export CHAOS_FLIGHT_DIR
mkdir -p "$CHAOS_FLIGHT_DIR"
rm -f "$CHAOS_FLIGHT_DIR"/*.jsonl
if ! go test -race -run 'TestChaos' ./internal/noc/ ./cmd/sketchpca-monitor/; then
    echo "chaos e2e FAILED; flight-recorder JSONL from $CHAOS_FLIGHT_DIR:" >&2
    for f in "$CHAOS_FLIGHT_DIR"/*.jsonl; do
        [ -f "$f" ] || continue
        echo "--- $f ---" >&2
        cat "$f" >&2
    done
    exit 1
fi
unset CHAOS_FLIGHT_DIR
step_done

# The federated differential e2e is the correctness bar of the PR9
# aggregator tier: a 3-aggregator topology must produce byte-identical
# alarm decisions to the flat NOC (randproj exactly; FD in the
# one-monitor-per-aggregator pass-through configuration). Since PR10 the
# same regex also gates the identification differential — federated and
# flat deployments must name identical culprit sets. Run it explicitly so
# the merge path is gated even if someone narrows the package test filters
# above.
step "go test -race federated differential e2e"
go test -race -run 'TestFederated' ./internal/noc/
step_done

# Identification-quality gate (PR10): the anomography suite replays five
# labeled attack scenarios over a synthetic Abilene-like week (m=81 flows)
# and scores the culprits each online family names against the injected
# ground truth. Both randproj and fd must clear precision@3 >= 0.8 and
# recall >= 0.7 or the eval exits non-zero. The offline PCP comparator row
# is informational (printed, not gated). ~4s; fully seeded, so a failure
# is a real quality regression, not flake.
step "identification quality gate (abilene-eval -identify)"
EVAL_TMP=$(mktemp -d)
trap 'rm -rf "$EVAL_TMP"' EXIT
go build -o "$EVAL_TMP/abilene-eval" ./cmd/abilene-eval
"$EVAL_TMP/abilene-eval" -identify -identify-min-p3 0.8 -identify-min-recall 0.7
step_done

# Evaluation goldens: every abilene-eval mode prints deterministic stdout, and
# cmd/abilene-eval's TestGoldenOutputs holds the sub-second modes to the byte.
# The three multi-second ones (-oracle and the 1-minute sweeps, ~3 + 2 + 5 s)
# are compared here instead, once and outside -race, against goldens in the
# same testdata/ directory (regenerate all nine with
# `go test ./cmd/abilene-eval -run TestGoldenOutputs -update`). A golden's
# first line names the architecture that recorded it — fused multiply-adds
# print different digits elsewhere — so another architecture skips.
step "evaluation goldens (abilene-eval -oracle, -figure 8, -figure 9)"
eval_golden() {
    golden="cmd/abilene-eval/testdata/$1.golden"
    shift
    if [ "$(head -n 1 "$golden")" != "# GOARCH $(go env GOARCH)" ]; then
        echo "   $golden: recorded on another architecture, skipped"
        return 0
    fi
    tail -n +2 "$golden" > "$EVAL_TMP/want"
    "$EVAL_TMP/abilene-eval" "$@" > "$EVAL_TMP/got"
    if ! cmp -s "$EVAL_TMP/want" "$EVAL_TMP/got"; then
        echo "abilene-eval $* differs from $golden; first difference (< golden, > now):" >&2
        diff "$EVAL_TMP/want" "$EVAL_TMP/got" | head -n 4 >&2
        exit 1
    fi
}
eval_golden oracle -oracle
eval_golden fig8 -figure 8
eval_golden fig9 -figure 9
step_done

# Fuzz smokes: ten seconds of coverage-guided input on each hostile decoder
# (NetFlow v5 datagrams off the wire, trace CSVs off disk, peer snapshots an
# aggregator validates and merges) and on the variance histogram's storage,
# differentially against a brute-force window. Go allows one -fuzz target per
# invocation.
step "fuzz smoke (NetFlow decoder, 10s)"
go test -run 'XXXnone' -fuzz '^FuzzDecodeDatagram$' -fuzztime 10s ./internal/ingest/ > /dev/null
step_done

step "fuzz smoke (trace CSV reader, 10s)"
go test -run 'XXXnone' -fuzz '^FuzzReadCSV$' -fuzztime 10s ./internal/traffic/ > /dev/null
step_done

step "fuzz smoke (peer snapshot merge, 10s)"
go test -run 'XXXnone' -fuzz '^FuzzMergeColumns$' -fuzztime 10s ./internal/sketch/ > /dev/null
step_done

step "fuzz smoke (variance histogram against the exact window, 10s)"
go test -run 'XXXnone' -fuzz '^FuzzHistogramAgainstWindow$' -fuzztime 10s ./internal/vh/ > /dev/null
step_done

step "bench smoke (1 iteration per benchmark)"
go test . ./internal/... -run 'XXXnone' -bench . -benchtime 1x > /dev/null
step_done

echo "ci.sh: all checks passed"
