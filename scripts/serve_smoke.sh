#!/bin/sh
# serve-smoke: boot mfcd on a random port and walk the whole endpoint
# surface with curl — create (upload + rejected garbage), query (fresh
# and cached), grid, enumerate (full set, cached, top-r), mutate
# (buffered, then flushed by the next query), explicit flush, metrics,
# admission blacklist, delete. The removed unversioned paths are walked
# too, for their 404s. Two hard-fail conditions: any unexpected HTTP
# status, and a differential mismatch — the graph mutated through
# buffered deltas must answer exactly like the same final graph
# uploaded fresh.
#
# OUT_DIR (default /tmp/serve-smoke) receives smoke.log, the full
# request/response transcript CI uploads as an artifact.
set -eu

OUT_DIR="${OUT_DIR:-/tmp/serve-smoke}"
mkdir -p "$OUT_DIR"
LOG="$OUT_DIR/smoke.log"
: > "$LOG"

say() { echo "serve-smoke: $*" | tee -a "$LOG"; }
fail() { say "FAIL: $*"; exit 1; }

WORK=$(mktemp -d)
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

say "building mfcd"
go build -o "$WORK/mfcd" ./cmd/mfcd

"$WORK/mfcd" -addr 127.0.0.1:0 -ready-file "$WORK/addr" \
    -blacklist mallory -max-inflight 4 2>>"$LOG" &
PID=$!
i=0
while [ ! -s "$WORK/addr" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "daemon never wrote the ready file"
    kill -0 "$PID" 2>/dev/null || fail "daemon exited during startup (see $LOG)"
    sleep 0.1
done
BASE="http://$(cat "$WORK/addr")"
say "daemon listening at $BASE"

BODY="$OUT_DIR/last_body.json"

# req METHOD PATH WANT_STATUS [extra curl args...] — performs the call,
# logs it, hard-fails on a status mismatch, leaves the body in $BODY.
req() {
    _method=$1 _path=$2 _want=$3
    shift 3
    _status=$(curl -sS -o "$BODY" -w '%{http_code}' -X "$_method" "$BASE$_path" "$@") ||
        fail "curl $_method $_path"
    {
        printf '>>> %s %s -> %s\n' "$_method" "$_path" "$_status"
        cat "$BODY"
        echo
    } >>"$LOG"
    [ "$_status" = "$_want" ] || fail "$_method $_path returned $_status, want $_want ($(cat "$BODY"))"
}

# jqget FILTER — extracts from the last response body.
jqget() { jq -r "$1" <"$BODY"; }

req GET /v1/healthz 200

# --- legacy paths: removed, so 404 (no redirect to /v1) -------------
for p in /healthz /metrics /graphs; do
    req GET "$p" 404
done
say "legacy paths 404"

# --- create: upload the balanced-K4-plus-pendant test graph ---------
cat >"$WORK/g.txt" <<'EOF'
v 0 a
v 1 a
v 2 b
v 3 b
v 4 a
e 0 1
e 0 2
e 0 3
e 1 2
e 1 3
e 2 3
e 0 4
EOF
req POST "/v1/graphs?name=demo" 201 -H 'Content-Type: text/plain' --data-binary @"$WORK/g.txt"
[ "$(jqget .vertices)" = 5 ] || fail "uploaded graph has $(jqget .vertices) vertices, want 5"

# Garbage uploads die with the error envelope — bad_request plus the
# offending line — and register nothing.
req POST "/v1/graphs?name=bad" 400 -H 'Content-Type: text/plain' --data-binary 'e 0 2000000000'
[ "$(jqget .error.code)" = "bad_request" ] || fail "garbage upload code $(jqget .error.code), want bad_request"
[ "$(jqget .error.line)" -ge 1 ] || fail "garbage upload error does not name a line: $(cat "$BODY")"
req GET /v1/graphs/bad 404
[ "$(jqget .error.code)" = "not_found" ] || fail "missing graph code $(jqget .error.code), want not_found"

# --- query: fresh, then cached --------------------------------------
req POST /v1/graphs/demo/query 200 -H 'Content-Type: application/json' -d '{"k":2,"delta":0}'
[ "$(jqget .size)" = 4 ] || fail "(2,0) query size $(jqget .size), want 4"
[ "$(jqget .cached)" = false ] || fail "first query claims a cache hit"
req POST /v1/graphs/demo/query 200 -H 'Content-Type: application/json' -d '{"k":2,"delta":0}'
[ "$(jqget .cached)" = true ] || fail "second identical query missed the cache"

req POST /v1/graphs/demo/grid 200 -H 'Content-Type: application/json' \
    -d '{"cells":[{"k":1,"delta":1},{"k":2,"delta":0},{"k":2,"mode":"strong"}]}'
[ "$(jqget '.results | length')" = 3 ] || fail "grid returned $(jqget '.results | length') cells, want 3"

# --- enumerate: the full optimum set, cached replay, top-r ----------
req POST /v1/graphs/demo/enumerate 200 -H 'Content-Type: application/json' -d '{"k":2,"delta":0}'
[ "$(jqget .size)" = 4 ] || fail "enumerate (2,0) size $(jqget .size), want 4"
[ "$(jqget .count)" = 1 ] || fail "enumerate (2,0) found $(jqget .count) cliques, want 1"
[ "$(jqget '.cliques[0] | join(",")')" = "0,1,2,3" ] || fail "enumerate clique $(jqget '.cliques[0]'), want [0,1,2,3]"
[ "$(jqget .exact)" = true ] || fail "unbudgeted enumerate not exact"
req POST /v1/graphs/demo/enumerate 200 -H 'Content-Type: application/json' -d '{"k":2,"delta":0}'
[ "$(jqget .cached)" = true ] || fail "second identical enumerate missed the cache"
req POST /v1/graphs/demo/enumerate 200 -H 'Content-Type: application/json' -d '{"k":1,"delta":3,"r":2}'
[ "$(jqget .count)" -le 2 ] || fail "top-2 enumerate returned $(jqget .count) cliques"
req POST /v1/graphs/demo/enumerate 400 -H 'Content-Type: application/json' -d '{"k":2,"r":-1}'
[ "$(jqget .error.code)" = "bad_request" ] || fail "negative r code $(jqget .error.code), want bad_request"
say "enumerate ok: full set, cache hit, top-r"

# --- mutate: buffered ops, flushed by the next query ----------------
req POST /v1/graphs/demo/mutate 200 -H 'Content-Type: text/plain' \
    --data-binary '+v:b
+e:5:0 +e:5:1 +e:5:2 +e:5:3'
[ "$(jqget .buffered_ops)" = 5 ] || fail "mutate buffered $(jqget .buffered_ops) ops, want 5"
req GET /v1/graphs/demo 200
[ "$(jqget .epoch)" = 0 ] || fail "mutation flushed before any query (epoch $(jqget .epoch))"

req POST /v1/graphs/demo/query 200 -H 'Content-Type: application/json' -d '{"k":2,"delta":1}'
MUTATED_SIZE=$(jqget .size)
[ "$(jqget .epoch)" = 1 ] || fail "query after mutate ran at epoch $(jqget .epoch), want 1"

# --- differential: deltas vs fresh upload of the final graph --------
cat >"$WORK/g2.txt" <<'EOF'
v 0 a
v 1 a
v 2 b
v 3 b
v 4 a
v 5 b
e 0 1
e 0 2
e 0 3
e 1 2
e 1 3
e 2 3
e 0 4
e 5 0
e 5 1
e 5 2
e 5 3
EOF
req POST "/v1/graphs?name=mirror" 201 -H 'Content-Type: text/plain' --data-binary @"$WORK/g2.txt"
req POST /v1/graphs/mirror/query 200 -H 'Content-Type: application/json' -d '{"k":2,"delta":1}'
FRESH_SIZE=$(jqget .size)
[ "$MUTATED_SIZE" = "$FRESH_SIZE" ] ||
    fail "differential mismatch: mutated graph answers $MUTATED_SIZE, fresh upload answers $FRESH_SIZE"
say "differential ok: mutated == fresh == $FRESH_SIZE"

# --- explicit flush + metrics ---------------------------------------
req POST /v1/graphs/demo/mutate 200 -H 'Content-Type: text/plain' --data-binary '-e:0:4'
req POST /v1/graphs/demo/flush 200
[ "$(jqget .epoch)" = 2 ] || fail "explicit flush left epoch $(jqget .epoch), want 2"

req GET /v1/metrics 200
[ "$(jqget .graphs.demo.epoch)" = 2 ] || fail "metrics report demo at epoch $(jqget .graphs.demo.epoch), want 2"
HITS=$(jqget .cache_hits)
[ "$HITS" -ge 1 ] || fail "metrics report $HITS cache hits, want >= 1"
jqget '.endpoints.query.p99_ms' >/dev/null || fail "metrics missing query latency block"

# --- anytime: budgeted queries carry a certified gap, never cache ---
# A deterministic dense graph (LCG edge coin flips) big enough that a
# one-node budget and a tiny deadline both abort mid-search.
awk 'BEGIN{
    n = 300; s = 12345
    for (v = 0; v < n; v++) printf "v %d %s\n", v, (v % 2 ? "b" : "a")
    for (u = 0; u < n; u++) for (v = u + 1; v < n; v++) {
        s = (s * 75 + 74) % 65537
        if (s % 100 < 60) printf "e %d %d\n", u, v
    }
}' >"$WORK/dense.txt"
req POST "/v1/graphs?name=anyt" 201 -H 'Content-Type: text/plain' --data-binary @"$WORK/dense.txt"

req POST /v1/graphs/anyt/query 200 -H 'Content-Type: application/json' -d '{"k":2,"delta":1,"max_nodes":1}'
[ "$(jqget .exact)" = false ] || fail "node-budgeted query claims exact"
[ "$(jqget .cached)" = false ] || fail "budgeted query claims a cache hit"
GAP=$(jqget .gap)
[ "$GAP" -ge 0 ] || fail "budgeted query gap $GAP < 0"
[ "$(jqget .upper_bound)" -ge "$(jqget .size)" ] || fail "certificate below incumbent"
req POST /v1/graphs/anyt/query 200 -H 'Content-Type: application/json' -d '{"k":2,"delta":1,"max_nodes":1}'
[ "$(jqget .cached)" = false ] || fail "inexact answer was served from the cache"

req POST /v1/graphs/anyt/query 200 -H 'Content-Type: application/json' -d '{"k":2,"delta":1,"deadline_ms":20}'
[ "$(jqget .exact)" = false ] || fail "20ms-deadline query on the dense graph claims exact"
[ "$(jqget .gap)" -ge 0 ] || fail "deadline query gap $(jqget .gap) < 0"
say "anytime ok: budgeted answers inexact, gap >= 0, never cached"

# A generous deadline on the tiny demo graph finishes exact: gap 0.
req POST /v1/graphs/demo/query 200 -H 'Content-Type: application/json' -d '{"k":2,"delta":0,"deadline_ms":30000}'
[ "$(jqget .exact)" = true ] || fail "generous-deadline query on demo not exact"
[ "$(jqget .gap)" = 0 ] || fail "exact deadline query gap $(jqget .gap) != 0"

# Negative budgets are client errors.
req POST /v1/graphs/anyt/query 400 -H 'Content-Type: application/json' -d '{"k":2,"delta":1,"deadline_ms":-1}'

# --- admission: the blacklist holds on every endpoint ---------------
req GET /v1/graphs 403 -H 'X-Client: mallory'
req POST /v1/graphs/demo/query 403 -H 'X-Client: mallory' \
    -H 'Content-Type: application/json' -d '{"k":2,"delta":0}'

# --- delete ---------------------------------------------------------
req DELETE /v1/graphs/mirror 200
req GET /v1/graphs/mirror 404

say "PASS: full endpoint walk + differential"
