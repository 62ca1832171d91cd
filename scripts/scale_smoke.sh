#!/usr/bin/env bash
# Scale smoke test: generate a large LUBM dataset as N-Triples, partition
# it with the streaming ingest path, export v3 block snapshots, serve them
# from real mpc-site processes that memory-map the blocks, and assert that
# queries answered over loopback TCP carry the same canonical result
# digest as the fully in-memory execution path.
# Every process runs under a GOMEMLIMIT cap, so a memory regression in
# ingest, partitioning, or block serving fails the smoke instead of
# silently ballooning.
set -euo pipefail

K=${K:-4}
BASE_PORT=${BASE_PORT:-7491}
TRIPLES=${TRIPLES:-1000000}
MEMLIMIT=${MEMLIMIT:-1GiB}

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

echo "==> building binaries"
go build -o "$workdir" ./cmd/mpc-gen ./cmd/mpc-partition ./cmd/mpc-site ./cmd/mpc-query

echo "==> generating $TRIPLES-triple LUBM as N-Triples"
"$workdir/mpc-gen" -dataset LUBM -triples "$TRIPLES" -o "$workdir/g.nt"

echo "==> partitioning (streaming ingest, GOMEMLIMIT=$MEMLIMIT) + exporting block snapshots"
GOMEMLIMIT=$MEMLIMIT "$workdir/mpc-partition" -in "$workdir/g.nt" -out "$workdir/parts" \
    -k "$K" -strategy MPC -export-snapshots

sites=""
for i in $(seq 0 $((K - 1))); do
    port=$((BASE_PORT + i))
    GOMEMLIMIT=$MEMLIMIT "$workdir/mpc-site" -listen "127.0.0.1:$port" \
        -snapshot "$workdir/parts/part.site$i.mpcg" &
    pids+=($!)
    sites="${sites:+$sites,}127.0.0.1:$port"
done
echo "==> launched $K mapped-snapshot sites: $sites"

for i in $(seq 0 $((K - 1))); do
    port=$((BASE_PORT + i))
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
            exec 3>&- || true
            break
        fi
        sleep 0.1
    done
done

query='SELECT ?x ?y WHERE { ?x <http://lubm.example.org/univ#advisor> ?y . ?y <http://lubm.example.org/univ#worksFor> ?d . }'

echo "==> querying the mapped sites over TCP"
remote=$(GOMEMLIMIT=$MEMLIMIT "$workdir/mpc-query" -in "$workdir/g.nt" \
    -assign "$workdir/parts/assignment.txt" -sites "$sites" \
    -digest -limit 1 -query "$query" 2>&1)
echo "$remote"

echo "==> querying the in-memory path with the same layout"
local_out=$(GOMEMLIMIT=$MEMLIMIT "$workdir/mpc-query" -in "$workdir/g.nt" \
    -assign "$workdir/parts/assignment.txt" -digest -limit 1 -query "$query" 2>&1)
echo "$local_out"

remote_digest=$(echo "$remote" | sed -n 's/^digest: //p')
local_digest=$(echo "$local_out" | sed -n 's/^digest: //p')
remote_rows=$(echo "$remote" | sed -n 's/^results: \([0-9]*\) rows$/\1/p')

[ -n "$remote_digest" ] || { echo "FAIL: no digest from the TCP run"; exit 1; }
[ -n "$local_digest" ] || { echo "FAIL: no digest from the in-memory run"; exit 1; }
[ "$remote_rows" -gt 0 ] || { echo "FAIL: zero result rows"; exit 1; }
echo "$remote" | grep -Eq "wire: [1-9][0-9]* bytes shipped" || { echo "FAIL: zero bytes shipped (query did not go over the transport?)"; exit 1; }
if [ "$remote_digest" != "$local_digest" ]; then
    echo "FAIL: mapped-snapshot TCP digest $remote_digest != in-memory digest $local_digest"
    exit 1
fi

echo "==> scale smoke OK ($remote_rows rows, digest $remote_digest)"
