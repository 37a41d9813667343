#!/bin/sh
# lzwtcd smoke: build the server and CLI, start the service on an
# ephemeral port (with the debug listener up), push one traced
# compress/decompress round trip through `lzwtc remote`, check
# /healthz, /v1/stats, /metrics SLO series, and /debug/trace/recent,
# render the client-side trace with `lzwtc trace`, check that a local
# traced compress renders as one trace, then SIGTERM the server, require
# a clean (exit 0) graceful drain, and require that the server's event
# capture carries no per-step events.
set -eu

WORK=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/lzwtcd" ./cmd/lzwtcd
go build -o "$WORK/lzwtc" ./cmd/lzwtc

"$WORK/lzwtcd" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 \
    -telemetry-out "$WORK/server-spans.jsonl" >"$WORK/lzwtcd.log" 2>&1 &
SERVER_PID=$!

# The server prints "lzwtcd: listening on ADDR" once the listener is up,
# and "lzwtcd: debug listening on ADDR" for the debug listener.
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(awk '/^lzwtcd: listening on/ {print $NF; exit}' "$WORK/lzwtcd.log" 2>/dev/null || true)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "lzwtcd never started"; cat "$WORK/lzwtcd.log"; exit 1; }
DEBUG_ADDR=$(awk '/debug listening on/ {print $NF; exit}' "$WORK/lzwtcd.log")
[ -n "$DEBUG_ADDR" ] || { echo "debug listener never started"; cat "$WORK/lzwtcd.log"; exit 1; }
SERVER="http://$ADDR"
DEBUG="http://$DEBUG_ADDR"
echo "smoke: server at $SERVER, debug at $DEBUG"

"$WORK/lzwtc" remote health -server "$SERVER"

IN=testdata/conformance/paper-slice.cubes
"$WORK/lzwtc" remote compress -server "$SERVER" -in "$IN" -out "$WORK/out.lzw" \
    -char 7 -dict 1024 -entry 63 \
    -telemetry jsonl -telemetry-out "$WORK/spans.jsonl"
"$WORK/lzwtc" remote decompress -server "$SERVER" -in "$WORK/out.lzw" -out "$WORK/filled.txt"
"$WORK/lzwtc" verify -cubes "$IN" -filled "$WORK/filled.txt"
"$WORK/lzwtc" remote stats -server "$SERVER"

# The traced compress must render as a span tree with the client span
# at the root.
"$WORK/lzwtc" trace -in "$WORK/spans.jsonl" >"$WORK/trace.txt"
grep -q "client.request" "$WORK/trace.txt" || {
    echo "trace render missing client.request"; cat "$WORK/trace.txt"; exit 1; }

# Merging the client's and the server's span streams must yield ONE
# connected trace for the compress request: client and server spans
# share the propagated trace ID, and the tree descends through the
# handler and the pool into the core phases (>= 6 spans).
cat "$WORK/spans.jsonl" "$WORK/server-spans.jsonl" >"$WORK/merged.jsonl"
"$WORK/lzwtc" trace -in "$WORK/merged.jsonl" >"$WORK/merged-trace.txt"
COMPRESS_BLOCK=$(awk -v RS= '/client\.request/' "$WORK/merged-trace.txt")
for span in "client.request \[lzwtc\]" "server.compress \[lzwtcd\]" "core.match_loop \[lzwtcd\]"; do
    echo "$COMPRESS_BLOCK" | grep -q "$span" || {
        echo "merged trace block missing $span"
        cat "$WORK/merged-trace.txt"; exit 1; }
done
SPAN_LINES=$(echo "$COMPRESS_BLOCK" | grep -c "total .*µs" || true)
[ "$SPAN_LINES" -ge 6 ] || {
    echo "merged compress trace has $SPAN_LINES spans, want >= 6"
    cat "$WORK/merged-trace.txt"; exit 1; }
echo "smoke: merged trace spans=$SPAN_LINES"

# A local compress captured with -telemetry jsonl is one trace: the
# subcommand's root span with the core and wire phases beneath it.
"$WORK/lzwtc" compress -in "$IN" -out "$WORK/local.lzw" -char 7 -dict 1024 -entry 63 \
    -telemetry jsonl -telemetry-out "$WORK/local-spans.jsonl"
"$WORK/lzwtc" trace -in "$WORK/local-spans.jsonl" >"$WORK/local-trace.txt"
LOCAL_TRACES=$(grep -c "^trace " "$WORK/local-trace.txt" || true)
[ "$LOCAL_TRACES" -eq 1 ] || {
    echo "local compress capture renders as $LOCAL_TRACES traces, want 1"
    cat "$WORK/local-trace.txt"; exit 1; }

# SLO accounting: the compress round trip must show up in the
# span-derived success-latency series on /metrics.
curl -fsS -o "$WORK/metrics.txt" "$SERVER/metrics"
grep -q "lzwtcd_slo_compress_seconds_ok" "$WORK/metrics.txt" || {
    echo "metrics missing SLO series"; exit 1; }

# Live introspection: the ring buffer behind /debug/trace/recent (on
# both the service and the debug listener) holds the server's trace of
# the request we just sent.
curl -fsS -o "$WORK/recent.json" "$SERVER/debug/trace/recent"
grep -q "server.compress" "$WORK/recent.json" || {
    echo "/debug/trace/recent missing server.compress span"; exit 1; }
curl -fsS -o "$WORK/recent-debug.json" "$DEBUG/debug/trace/recent"
grep -q "server.compress" "$WORK/recent-debug.json" || {
    echo "debug listener trace endpoint missing server.compress span"; exit 1; }

# Shared-dictionary flow: train a dictionary into a local store, push
# it to the service, compress by dictionary ID (the container carries a
# 'D' frame naming it), decompress remotely (the server resolves its
# own store) and locally (the CLI resolves the pushed local store).
DICTS="$WORK/dicts"
KEY=$("$WORK/lzwtc" dict train -store "$DICTS" -in "$IN" -char 7 -dict 1024 -entry 63)
[ -n "$KEY" ] || { echo "dict train printed no key"; exit 1; }
"$WORK/lzwtc" dict ls -store "$DICTS" | grep -q "$KEY" || {
    echo "dict ls does not list the trained key"; exit 1; }
"$WORK/lzwtc" dict push -store "$DICTS" -id "$KEY" -server "$SERVER"
"$WORK/lzwtc" remote compress -server "$SERVER" -in "$IN" -out "$WORK/warm.lzw" \
    -char 7 -dict 1024 -entry 63 -dict-id "$KEY"
"$WORK/lzwtc" remote decompress -server "$SERVER" -in "$WORK/warm.lzw" -out "$WORK/warm-filled.txt"
"$WORK/lzwtc" verify -cubes "$IN" -filled "$WORK/warm-filled.txt"
"$WORK/lzwtc" decompress -in "$WORK/warm.lzw" -out "$WORK/warm-local.txt" -dict-store "$DICTS"
"$WORK/lzwtc" verify -cubes "$IN" -filled "$WORK/warm-local.txt"
cmp -s "$WORK/warm-filled.txt" "$WORK/warm-local.txt" || {
    echo "remote and local dict decompression disagree"; exit 1; }
echo "smoke: dict round trip ok (key $KEY)"

kill -TERM "$SERVER_PID"
WAIT_STATUS=0
wait "$SERVER_PID" || WAIT_STATUS=$?
if [ "$WAIT_STATUS" -ne 0 ]; then
    echo "lzwtcd did not drain cleanly (exit $WAIT_STATUS)"
    cat "$WORK/lzwtcd.log"
    exit 1
fi
grep -q "drained, shutting down" "$WORK/lzwtcd.log" || {
    echo "missing drain message"; cat "$WORK/lzwtcd.log"; exit 1; }
echo "smoke: clean drain"

# Span logging costs a fixed number of events per request: the
# server's capture holds run records and trace spans, never per-step
# events.
grep -q '"kind":"compress.run"' "$WORK/server-spans.jsonl" || {
    echo "server event capture has no compress.run record"; exit 1; }
if grep -q '"kind":"compress.step"' "$WORK/server-spans.jsonl"; then
    echo "server event capture carries per-step compress.step events"; exit 1
fi
echo "smoke: server events $(wc -l <"$WORK/server-spans.jsonl") lines, no step events"
