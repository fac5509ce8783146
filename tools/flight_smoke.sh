#!/usr/bin/env bash
# Flight-recorder smoke: boots a real `cogent serve`, fires requests
# (including one forced past the slow threshold), and validates the
# observability surface end to end — request-id echo, the
# `GET /v1/debug/flight` JSON lines (one `{"label", "trace"}` object per
# request, the trace in `cogent.trace.v3` with the search at full depth),
# slow + drain flight dumps, the structured access log, and the
# `cogent flight` analyzer. Uses bash's /dev/tcp so the smoke needs no
# HTTP client dependency.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/cogent
[ -x "$BIN" ] || cargo build --release --bin cogent

WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

# A 1 ms slow threshold makes the cold request below (an 8-D space of
# 192,760 candidates, several milliseconds of search) a "slow" request,
# so the slow-dump path is exercised deterministically.
"$BIN" serve --addr 127.0.0.1:0 --workers 2 \
    --slow-threshold-ms 1 \
    --flight-dir "$WORK/flight" \
    --access-log "$WORK/access.log" 2> "$WORK/serve.log" &
SERVER_PID=$!

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#^cogent serve: listening on http://##p' "$WORK/serve.log" | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "flight_smoke: server never reported its address" >&2
    cat "$WORK/serve.log" >&2
    exit 1
fi
HOST=${ADDR%:*}
PORT=${ADDR##*:}

# Sends the request on stdin over a fresh connection; the server closes
# after one response, so the read drains to EOF.
http() {
    local out=$1
    exec 3<>"/dev/tcp/$HOST/$PORT"
    cat >&3
    cat <&3 > "$out"
    exec 3>&- 3<&-
}

BODY='{"contraction":"abcdefgh-iabcdj-ijefgh","uniform":24}'
printf 'POST /v1/generate HTTP/1.1\r\nHost: t\r\nX-Request-Id: smoke-slow-1\r\nContent-Length: %s\r\n\r\n%s' \
    "${#BODY}" "$BODY" | http "$WORK/generate.http"
grep -q '^HTTP/1.1 200' "$WORK/generate.http"
grep -q 'X-Request-Id: smoke-slow-1' "$WORK/generate.http"

# A request without a client id gets a generated `req-NNNNNN` id.
printf 'POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: %s\r\n\r\n%s' \
    "${#BODY}" "$BODY" | http "$WORK/warm.http"
grep -q '^HTTP/1.1 200' "$WORK/warm.http"
grep -q 'X-Request-Id: req-' "$WORK/warm.http"

# The live debug endpoint serves the ring as JSON lines of labelled
# traces; the cold request's line holds the search's inner phases.
printf 'GET /v1/debug/flight HTTP/1.1\r\nHost: t\r\n\r\n' | http "$WORK/debug.http"
grep -q '^HTTP/1.1 200' "$WORK/debug.http"
tr -d '\r' < "$WORK/debug.http" | sed '1,/^$/d' > "$WORK/debug_flight.jsonl"
COLD=$(grep '^{"label":"smoke-slow-1","trace":{"schema":"cogent.trace.v3"' "$WORK/debug_flight.jsonl")
for phase in serve.job serve.search enumerate prune rank cost simulate; do
    grep -q "\"name\":\"$phase\"" <<<"$COLD"
done

# The forced-slow request produced an on-disk dump holding its own
# record only (a slow dump never rewrites the whole ring), and the
# analyzer round-trips both the dump file and the debug endpoint's body.
SLOW_DUMP=$(ls "$WORK"/flight/flight-slow-*.jsonl | head -n1)
grep -q '^{"label":"smoke-slow-1",' "$SLOW_DUMP"
for dump in "$WORK"/flight/flight-slow-*.jsonl; do
    [ "$(wc -l < "$dump")" -eq 1 ]
done
"$BIN" flight "$SLOW_DUMP" > "$WORK/analysis.txt"
grep -q 'smoke-slow-1' "$WORK/analysis.txt"
grep -q 'merged phase attribution' "$WORK/analysis.txt"
"$BIN" flight "$WORK/debug_flight.jsonl" > /dev/null

# The structured access log has one JSON line per request.
grep -q '"id":"smoke-slow-1"' "$WORK/access.log"
grep -q '"endpoint":"generate"' "$WORK/access.log"

# Graceful shutdown writes a drain dump of the whole ring. The server
# must exit within 10 s of SIGTERM: an accept thread that is never woken
# fails the smoke instead of hanging it.
kill -TERM "$SERVER_PID"
for _ in $(seq 1 100); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "flight_smoke: server still running 10 s after SIGTERM" >&2
    exit 1
fi
wait "$SERVER_PID"
SERVER_PID=""
# One record per request sent (each wrote one .http file), and none for
# the connection that woke the accept thread.
SENT=$(ls "$WORK"/*.http | wc -l)
DRAIN_DUMP=$(ls "$WORK"/flight/flight-drain-*.jsonl | head -n1)
[ "$(wc -l < "$DRAIN_DUMP")" -eq "$SENT" ]

echo "flight_smoke: all checks passed" >&2
