#!/bin/sh
# zateld smoke test: boot the daemon with a disk tier, serve a cold
# prediction, assert the identical repeat is served as a store hit (response
# field and /metrics counter, with a Content-Length), check the observability
# surface (request ids, one log line per request, ?trace=1, pprof, per-step
# histograms), SIGTERM-drain, then RESTART the daemon on the same -store-dir
# and assert the same request is served warm from disk ("cache": "disk") —
# the cross-restart persistence promise — out of a prediction entry that
# stayed response-sized (under 8 KB on disk).
# Finally boot a TWO-NODE fleet (-peers/-self) and assert an artifact built
# on the owning node is served by the other as "cache": "peer" with zero
# local builds — the cluster tier's fetch-not-rebuild promise.
set -eu
cd "$(dirname "$0")/.."

ADDR="${ZATELD_SMOKE_ADDR:-127.0.0.1:17717}"
DEBUG_ADDR="${ZATELD_SMOKE_DEBUG_ADDR:-127.0.0.1:17718}"
ADDR_A="${ZATELD_SMOKE_CLUSTER_A:-127.0.0.1:17719}"
ADDR_B="${ZATELD_SMOKE_CLUSTER_B:-127.0.0.1:17720}"
TMP="$(mktemp -d)"
PID=""
PID_A=""
PID_B=""
cleanup() {
	[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
	[ -n "$PID_A" ] && kill -9 "$PID_A" 2>/dev/null || true
	[ -n "$PID_B" ] && kill -9 "$PID_B" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/zateld" ./cmd/zateld

# wait_healthy <addr> <logfile>: poll /healthz until it answers 200.
wait_healthy() {
	i=0
	until curl -fsS "http://$1/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -ge 100 ]; then
			echo "smoke: zateld at $1 never became healthy" >&2
			cat "$2" >&2
			exit 1
		fi
		sleep 0.1
	done
}

"$TMP/zateld" -addr "$ADDR" -debug-addr "$DEBUG_ADDR" -store-size 256MiB \
	-store-dir "$TMP/store" -disk-size 64MiB >"$TMP/zateld.log" 2>&1 &
PID=$!
wait_healthy "$ADDR" "$TMP/zateld.log"

# The disk tier must report healthy from the start.
curl -fsS "http://$ADDR/healthz" | grep -q '"state": "ok"' \
	|| { echo "smoke: /healthz missing disk state ok" >&2; exit 1; }

BODY='{"scene":"SPRNG","config":"mobile","width":48,"height":48,"spp":1}'

# The first (cold) predict runs the full pipeline; ask for its span trace
# and pass a request id so we can assert both round-trip.
R1="$(curl -fsS -D "$TMP/headers1" -X POST -H 'X-Zatel-Request-Id: smoke-cold-1' \
	-d "$BODY" "http://$ADDR/v1/predict?trace=1")"
echo "$R1" | grep -q '"cache": "miss"' || { echo "smoke: first predict not a miss: $R1" >&2; exit 1; }
echo "$R1" | grep -q '"GPU IPC"' || { echo "smoke: prediction missing metrics: $R1" >&2; exit 1; }
echo "$R1" | grep -q '"key"' || { echo "smoke: prediction missing key: $R1" >&2; exit 1; }
echo "$R1" | grep -q '"request_id": "smoke-cold-1"' \
	|| { echo "smoke: request id did not round-trip in the body" >&2; exit 1; }
grep -iq '^x-zatel-request-id: smoke-cold-1' "$TMP/headers1" \
	|| { echo "smoke: request id did not round-trip in the header" >&2; exit 1; }
echo "$R1" | grep -q '"traceEvents"' \
	|| { echo "smoke: ?trace=1 response carries no trace" >&2; exit 1; }
echo "$R1" | grep -q 'step6_simulate' \
	|| { echo "smoke: trace carries no pipeline step spans" >&2; exit 1; }

# pprof must serve while the daemon handles predictions.
curl -fsS "http://$DEBUG_ADDR/debug/pprof/" | grep -q goroutine \
	|| { echo "smoke: /debug/pprof/ index not served" >&2; exit 1; }
curl -fsS "http://$DEBUG_ADDR/debug/pprof/goroutine?debug=1" | grep -q goroutine \
	|| { echo "smoke: goroutine profile not served" >&2; exit 1; }

# One structured log line per request: the cold predict's id appears on
# exactly one line of the daemon log, and that line says how it was served.
COLD_LINES="$(grep -c 'request_id=smoke-cold-1' "$TMP/zateld.log" || true)"
[ "$COLD_LINES" -eq 1 ] && grep 'request_id=smoke-cold-1' "$TMP/zateld.log" | grep -q 'cache=miss' \
	|| { echo "smoke: want exactly one log line for smoke-cold-1, carrying cache=miss; got $COLD_LINES" >&2; cat "$TMP/zateld.log" >&2; exit 1; }

R2="$(curl -fsS -D "$TMP/headers2" -X POST -d "$BODY" "http://$ADDR/v1/predict")"
echo "$R2" | grep -q '"cache": "hit"' || { echo "smoke: second predict not a hit: $R2" >&2; exit 1; }
grep -iq '^content-length: [1-9]' "$TMP/headers2" \
	|| { echo "smoke: repeat predict response has no Content-Length" >&2; cat "$TMP/headers2" >&2; exit 1; }

METRICS="$(curl -fsS "http://$ADDR/metrics")"
echo "$METRICS" | grep -Eq '^zatel_store_hits_total [1-9]' \
	|| { echo "smoke: /metrics shows no store hit" >&2; exit 1; }
echo "$METRICS" | grep -q 'zatel_step_latency_seconds_bucket{step="step1_profile"' \
	|| { echo "smoke: /metrics missing per-step histograms" >&2; exit 1; }
echo "$METRICS" | grep -Eq 'zatel_step_latency_seconds_count\{step="step7_combine"\} [1-9]' \
	|| { echo "smoke: step histograms saw no cold build" >&2; exit 1; }
echo "$METRICS" | grep -q '^zatel_predictions_total' \
	|| { echo "smoke: /metrics missing core pipeline counters" >&2; exit 1; }
echo "$METRICS" | grep -q '^zatel_store_disk_enabled 1' \
	|| { echo "smoke: /metrics shows no disk tier" >&2; exit 1; }

kill -TERM "$PID"
if ! wait "$PID"; then
	echo "smoke: zateld drain exited non-zero" >&2
	cat "$TMP/zateld.log" >&2
	exit 1
fi
PID=""

# The drained daemon persisted the prediction, and the entry is
# response-sized: the quantized heatmap is its own artifact beside it,
# never a copy inside each prediction.
KEY="$(echo "$R1" | sed -n 's/^ *"key": "\([0-9a-f]\{64\}\)".*/\1/p')"
ART="$TMP/store/$KEY.art"
[ -n "$KEY" ] && [ -f "$ART" ] \
	|| { echo "smoke: prediction '$KEY' not persisted under $TMP/store" >&2; ls "$TMP/store" >&2; exit 1; }
ART_BYTES="$(wc -c <"$ART")"
[ "$ART_BYTES" -lt 8192 ] \
	|| { echo "smoke: persisted prediction is $ART_BYTES bytes, want under 8 KB" >&2; exit 1; }

# Restart on the same cache directory: the prediction built before the
# drain must be served from the disk tier — integrity-verified, no rebuild.
"$TMP/zateld" -addr "$ADDR" -store-size 256MiB \
	-store-dir "$TMP/store" -disk-size 64MiB >"$TMP/zateld2.log" 2>&1 &
PID=$!
wait_healthy "$ADDR" "$TMP/zateld2.log"

R3="$(curl -fsS -X POST -d "$BODY" "http://$ADDR/v1/predict")"
echo "$R3" | grep -q '"cache": "disk"' \
	|| { echo "smoke: post-restart predict not served from disk: $R3" >&2; cat "$TMP/zateld2.log" >&2; exit 1; }

METRICS2="$(curl -fsS "http://$ADDR/metrics")"
echo "$METRICS2" | grep -Eq '^zatel_store_disk_hits_total [1-9]' \
	|| { echo "smoke: /metrics shows no disk hit after restart" >&2; exit 1; }

kill -TERM "$PID"
if ! wait "$PID"; then
	echo "smoke: zateld second drain exited non-zero" >&2
	cat "$TMP/zateld2.log" >&2
	exit 1
fi
PID=""

# --- Two-node cluster scenario ------------------------------------------
# Boot a fleet of two nodes sharing one consistent-hash ring. The first
# predict lands on node A; whichever node owns the key builds it (A locally
# or via A forwarding to B). The same request to the NON-owner must then be
# served "cache": "peer" — fetched over /v1/artifacts, verified, promoted —
# with the non-owner's build counter still at zero.
PEERS="http://$ADDR_A,http://$ADDR_B"
"$TMP/zateld" -addr "$ADDR_A" -self "http://$ADDR_A" -peers "$PEERS" \
	-node-name smoke-a >"$TMP/zateld_a.log" 2>&1 &
PID_A=$!
"$TMP/zateld" -addr "$ADDR_B" -self "http://$ADDR_B" -peers "$PEERS" \
	-node-name smoke-b >"$TMP/zateld_b.log" 2>&1 &
PID_B=$!
wait_healthy "$ADDR_A" "$TMP/zateld_a.log"
wait_healthy "$ADDR_B" "$TMP/zateld_b.log"

CBODY='{"scene":"SPRNG","config":"mobile","width":44,"height":44,"spp":1}'
RC="$(curl -fsS -D "$TMP/cheaders" -X POST -d "$CBODY" "http://$ADDR_A/v1/predict")"
echo "$RC" | grep -q '"cache": "miss"' \
	|| { echo "smoke: cluster cold predict not a miss: $RC" >&2; exit 1; }
grep -iq '^x-zatel-node: smoke-a' "$TMP/cheaders" \
	|| { echo "smoke: response missing X-Zatel-Node" >&2; cat "$TMP/cheaders" >&2; exit 1; }
OWNER="$(tr -d '\r' <"$TMP/cheaders" | awk 'tolower($1) == "x-zatel-owner:" {print $2}')"
case "$OWNER" in
"http://$ADDR_A") NODE_N="$ADDR_B"; NAME_N="smoke-b" ;;
"http://$ADDR_B") NODE_N="$ADDR_A"; NAME_N="smoke-a" ;;
*) echo "smoke: unrecognised X-Zatel-Owner '$OWNER'" >&2; exit 1 ;;
esac

RP="$(curl -fsS -D "$TMP/pheaders" -X POST -d "$CBODY" "http://$NODE_N/v1/predict")"
echo "$RP" | grep -q '"cache": "peer"' \
	|| { echo "smoke: non-owner predict not served from peer: $RP" >&2; cat "$TMP/zateld_a.log" "$TMP/zateld_b.log" >&2; exit 1; }
grep -iq "^x-zatel-node: $NAME_N" "$TMP/pheaders" \
	|| { echo "smoke: non-owner response missing X-Zatel-Node $NAME_N" >&2; exit 1; }

CMETRICS="$(curl -fsS "http://$NODE_N/metrics")"
echo "$CMETRICS" | grep -q '^zatel_store_builds_total 0' \
	|| { echo "smoke: non-owner ran local builds; peer tier bypassed" >&2; exit 1; }
echo "$CMETRICS" | grep -Eq '^zatel_cluster_fetch_hits_total [1-9]' \
	|| { echo "smoke: non-owner /metrics shows no peer fetch hit" >&2; exit 1; }
echo "$CMETRICS" | grep -q '^zatel_cluster_enabled 1' \
	|| { echo "smoke: /metrics missing cluster block" >&2; exit 1; }

kill -TERM "$PID_A" "$PID_B"
if ! wait "$PID_A"; then
	echo "smoke: cluster node A drain exited non-zero" >&2
	cat "$TMP/zateld_a.log" >&2
	exit 1
fi
PID_A=""
if ! wait "$PID_B"; then
	echo "smoke: cluster node B drain exited non-zero" >&2
	cat "$TMP/zateld_b.log" >&2
	exit 1
fi
PID_B=""
echo "zateld smoke: OK (including cross-restart disk warm hit and two-node peer fetch)"
