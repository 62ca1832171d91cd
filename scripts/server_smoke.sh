#!/usr/bin/env bash
# Serving-stack smoke test: launch real mpc-site processes over exported
# snapshots and an mpc-server frontend on top of them, fire concurrent
# HTTP queries, and assert every response carries the same canonical
# result digest, that repeats hit the result cache, and that the metrics
# endpoint reports the traffic. Exercises the full concurrent path (scheduler, pipelined
# transport, qcache) that the in-process unit tests can't.
set -euo pipefail

K=${K:-2}
BASE_PORT=${BASE_PORT:-7491}
HTTP_PORT=${HTTP_PORT:-7490}
TRIPLES=${TRIPLES:-20000}
CLIENTS=${CLIENTS:-8}

workdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fetch() { # fetch URL OUTFILE
    if command -v curl >/dev/null; then
        curl -fsS -o "$2" "$1"
    else
        wget -qO "$2" "$1"
    fi
}

echo "==> building binaries"
go build -o "$workdir" ./cmd/mpc-gen ./cmd/mpc-partition ./cmd/mpc-site ./cmd/mpc-server

echo "==> generating $TRIPLES-triple LUBM as N-Triples"
"$workdir/mpc-gen" -dataset LUBM -triples "$TRIPLES" -o "$workdir/g.nt"

echo "==> partitioning + exporting one block snapshot per site"
"$workdir/mpc-partition" -in "$workdir/g.nt" -out "$workdir/parts" -k "$K" -strategy MPC -export-snapshots

sites=""
for i in $(seq 0 $((K - 1))); do
    port=$((BASE_PORT + i))
    "$workdir/mpc-site" -listen "127.0.0.1:$port" -snapshot "$workdir/parts/part.site$i.mpcg" &
    pids+=($!)
    sites="${sites:+$sites,}127.0.0.1:$port"
done
echo "==> launched $K snapshot-serving sites: $sites"

for i in $(seq 0 $((K - 1))); do
    port=$((BASE_PORT + i))
    for _ in $(seq 1 50); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
            exec 3>&- || true
            break
        fi
        sleep 0.1
    done
done

echo "==> launching mpc-server on :$HTTP_PORT"
"$workdir/mpc-server" -in "$workdir/g.nt" -sites "$sites" \
    -listen "127.0.0.1:$HTTP_PORT" -workers 8 -queue 32 -cache-mb 32 &
pids+=($!)
for _ in $(seq 1 100); do
    if fetch "http://127.0.0.1:$HTTP_PORT/healthz" "$workdir/health" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
grep -q ok "$workdir/health" || { echo "FAIL: server never became healthy"; exit 1; }

query='SELECT ?x ?y WHERE { ?x <http://lubm.example.org/univ#advisor> ?y . ?y <http://lubm.example.org/univ#worksFor> ?d . }'
enc=$(printf '%s' "$query" | sed 's/ /%20/g; s/?/%3F/g; s/</%3C/g; s/>/%3E/g; s/{/%7B/g; s/}/%7D/g; s/#/%23/g')
url="http://127.0.0.1:$HTTP_PORT/query?limit=1&digest=1&q=$enc"

echo "==> firing $CLIENTS concurrent queries"
fetchers=()
for i in $(seq 1 "$CLIENTS"); do
    fetch "$url" "$workdir/resp.$i" &
    fetchers+=($!)
done
for pid in "${fetchers[@]}"; do
    wait "$pid"
done

digests=$(grep -ho '"digest":"[0-9a-f]*"' "$workdir"/resp.* | sort -u)
echo "    digests: $digests"
[ -n "$digests" ] || { echo "FAIL: no digests in responses"; exit 1; }
[ "$(echo "$digests" | wc -l)" -eq 1 ] || { echo "FAIL: concurrent responses disagree on the result digest"; exit 1; }
grep -q '"row_count":[1-9]' "$workdir/resp.1" || { echo "FAIL: query returned no rows"; exit 1; }
grep -hq '"cache_hit":true' "$workdir"/resp.* || { echo "FAIL: repeated query never hit the result cache"; exit 1; }

echo "==> checking /debug/metrics"
fetch "http://127.0.0.1:$HTTP_PORT/debug/metrics" "$workdir/metrics"
grep -q '"serve.completed"' "$workdir/metrics" || { echo "FAIL: scheduler metrics missing"; exit 1; }
grep -q '"qcache.hits"' "$workdir/metrics" || { echo "FAIL: cache metrics missing"; exit 1; }
completed=$(grep -o '"serve.completed": *[0-9]*' "$workdir/metrics" | grep -o '[0-9]*$')
hits=$(grep -o '"qcache.hits": *[0-9]*' "$workdir/metrics" | grep -o '[0-9]*$')
echo "    serve.completed=$completed qcache.hits=$hits"
[ "${hits:-0}" -ge 1 ] || { echo "FAIL: metrics report no cache hits"; exit 1; }
[ $((${completed:-0} + ${hits:-0})) -ge "$CLIENTS" ] || { echo "FAIL: metrics do not account for all $CLIENTS queries"; exit 1; }

echo "==> server smoke OK"
