#!/usr/bin/env bash
# Online-repartitioning smoke test: launch real mpc-site processes over
# exported snapshots and an mpc-server frontend with the repartitioner
# enabled, drift the live graph through POST /update, then force a
# repartition cycle via POST /admin/repart while a query loop keeps
# running. Asserts zero failed
# queries, the same canonical result digest before and after the cutover,
# and a /debug/repart status that recorded the run. Exercises the full
# online path (policy endpoint, snapshot, offline recompute, migration
# shipment over TCP, epoch-fenced cache invalidation) against real
# processes.
set -euo pipefail

K=${K:-2}
BASE_PORT=${BASE_PORT:-7521}
HTTP_PORT=${HTTP_PORT:-7520}
TRIPLES=${TRIPLES:-20000}
DRIFT_OPS=${DRIFT_OPS:-300}
QUERIES=${QUERIES:-30}

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

post() { # post URL BODYFILE OUTFILE
    if command -v curl >/dev/null; then
        curl -fsS -X POST --data-binary "@$2" -o "$3" "$1"
    else
        wget -qO "$3" --post-file="$2" "$1"
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

echo "==> launching mpc-server with the repartitioner on :$HTTP_PORT"
"$workdir/mpc-server" -in "$workdir/g.nt" -sites "$sites" \
    -listen "127.0.0.1:$HTTP_PORT" -workers 8 -queue 32 -cache-mb 32 \
    -repart 60s -repart-growth 1.25 &
pids+=($!)
for _ in $(seq 1 100); do
    if fetch "http://127.0.0.1:$HTTP_PORT/healthz" "$workdir/health" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
grep -q ok "$workdir/health" || { echo "FAIL: server never became healthy"; exit 1; }

echo "==> drifting the live graph: $DRIFT_OPS inserts via POST /update"
{
    printf '['
    for i in $(seq 1 "$DRIFT_OPS"); do
        [ "$i" -gt 1 ] && printf ','
        printf '{"Insert":true,"S":"u:smoke%d","P":"http://lubm.example.org/univ#advisor","O":"u:smoke%d"}' \
            "$i" $(((i % DRIFT_OPS) + 1))
    done
    printf ']'
} > "$workdir/ops.json"
post "http://127.0.0.1:$HTTP_PORT/update" "$workdir/ops.json" "$workdir/upres"
grep -q '"inserted":'"$DRIFT_OPS" "$workdir/upres" || { echo "FAIL: update did not insert $DRIFT_OPS ops: $(cat "$workdir/upres")"; exit 1; }

query='SELECT ?x ?y WHERE { ?x <http://lubm.example.org/univ#advisor> ?y . ?y <http://lubm.example.org/univ#worksFor> ?d . }'
enc=$(printf '%s' "$query" | sed 's/ /%20/g; s/?/%3F/g; s/</%3C/g; s/>/%3E/g; s/{/%7B/g; s/}/%7D/g; s/#/%23/g')
url="http://127.0.0.1:$HTTP_PORT/query?limit=1&digest=1&q=$enc"

echo "==> baseline answer on the drifted graph"
fetch "$url" "$workdir/baseline"
base_digest=$(grep -o '"digest":"[0-9a-f]*"' "$workdir/baseline")
[ -n "$base_digest" ] || { echo "FAIL: no digest in baseline response"; exit 1; }
echo "    $base_digest"

echo "==> forcing a repartition cycle with a concurrent query loop"
: > "$workdir/qfail"
(
    for i in $(seq 1 "$QUERIES"); do
        if ! fetch "$url" "$workdir/qr.$i" 2>/dev/null; then
            echo "$i" >> "$workdir/qfail"
        fi
    done
) &
qloop=$!
: > "$workdir/empty"
post "http://127.0.0.1:$HTTP_PORT/admin/repart" "$workdir/empty" "$workdir/repres"
wait "$qloop"

grep -q '"Moved":' "$workdir/repres" || { echo "FAIL: /admin/repart returned no migration stats: $(cat "$workdir/repres")"; exit 1; }
moved=$(grep -o '"Moved": *[0-9]*' "$workdir/repres" | grep -o '[0-9]*$')
echo "    migration moved $moved vertices"
[ -s "$workdir/qfail" ] && { echo "FAIL: $(wc -l < "$workdir/qfail") queries failed during the migration"; exit 1; }

digests=$(grep -ho '"digest":"[0-9a-f]*"' "$workdir"/qr.* "$workdir/baseline" | sort -u)
[ "$(echo "$digests" | wc -l)" -eq 1 ] || { echo "FAIL: answers changed across the cutover: $digests"; exit 1; }

echo "==> post-cutover answer"
fetch "$url" "$workdir/after"
after_digest=$(grep -o '"digest":"[0-9a-f]*"' "$workdir/after")
[ "$after_digest" = "$base_digest" ] || { echo "FAIL: digest changed across the migration: $base_digest -> $after_digest"; exit 1; }

echo "==> checking /debug/repart status"
fetch "http://127.0.0.1:$HTTP_PORT/debug/repart" "$workdir/status"
grep -q '"runs":1' "$workdir/status" || { echo "FAIL: status did not record the run: $(cat "$workdir/status")"; exit 1; }
grep -q '"failures":0' "$workdir/status" || { echo "FAIL: status records failures: $(cat "$workdir/status")"; exit 1; }
grep -q '"last_reason":"manual (/admin/repart)"' "$workdir/status" || { echo "FAIL: status lost the trigger reason: $(cat "$workdir/status")"; exit 1; }

echo "==> repart smoke OK (moved=$moved, $QUERIES queries during migration, digests identical)"
