#!/usr/bin/env bash
# Transport loopback smoke test: partition a graph, launch one real
# mpc-site process per exported snapshot, run a query through them with
# mpc-query -sites, and check the coordinator got answers over the wire.
# Exercises the full binary path (snapshot export, mapped serving, the
# connect-time layout check, remote subquery evaluation, measured wire
# stats) that the in-process unit tests can't. The coordinator recomputes
# the layout from the same input, -k and seed instead of reading
# assignment.txt, so the run also checks the partitioner is reproducible
# across processes.
set -euo pipefail

K=${K:-4}
BASE_PORT=${BASE_PORT:-7471}
TRIPLES=${TRIPLES:-20000}

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

# Wait for every site to accept connections.
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

echo "==> running a join query through the real sites"
out=$("$workdir/mpc-query" -in "$workdir/g.nt" -k "$K" -sites "$sites" \
    -query 'SELECT ?x ?y WHERE { ?x <http://lubm.example.org/univ#advisor> ?y . ?y <http://lubm.example.org/univ#worksFor> ?d . }' 2>&1)
echo "$out"

echo "$out" | grep -q "results: " || { echo "FAIL: no results line"; exit 1; }
echo "$out" | grep -q "wire: " || { echo "FAIL: no measured wire stats (query did not go over the transport?)"; exit 1; }
echo "$out" | grep -Eq "wire: [1-9][0-9]* bytes shipped" || { echo "FAIL: zero bytes shipped"; exit 1; }

echo "==> a coordinator with a different layout must be refused at connect time"
if bad=$("$workdir/mpc-query" -in "$workdir/g.nt" -k "$K" -strategy Subject_Hash -sites "$sites" \
    -query 'SELECT ?x WHERE { ?x <http://lubm.example.org/univ#advisor> ?y . }' 2>&1); then
    echo "$bad"
    echo "FAIL: Subject_Hash coordinator accepted MPC sites"
    exit 1
fi
echo "$bad" | grep -q "coordinator's layout expects" || { echo "$bad"; echo "FAIL: refusal does not explain the mismatch"; exit 1; }

echo "==> transport smoke OK"
