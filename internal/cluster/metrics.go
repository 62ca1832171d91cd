package cluster

import (
	"mpc/internal/obs"
	"mpc/internal/sparql"
)

// clusterMetrics holds the pre-resolved instrument handles of the query
// path, so the hot path never does a registry map lookup. Built from a nil
// registry, every handle is nil and every record below is a no-op nil check
// (see internal/obs), which keeps the disabled path at near-zero overhead.
type clusterMetrics struct {
	queries     *obs.Counter // query.count: Execute calls
	independent *obs.Counter // query.independent: IEQs that skipped the join

	tuplesShipped   *obs.Counter // net.tuples_shipped: tuples moved for joins
	bytesShipped    *obs.Counter // net.bytes_shipped: measured wire bytes (transport mode)
	semijoinRemoved *obs.Counter // semijoin.rows_removed: rows cut by the reduction
	hashJoins       *obs.Counter // join.hash_joins: pairwise joins performed
	readRetries     *obs.Counter // cluster.read_retries: executions rerun after a commit landed mid-call

	decompNS *obs.Histogram // query.decompose_ns (QDT)
	localNS  *obs.Histogram // query.local_ns (LET)
	joinNS   *obs.Histogram // query.join_ns (JT: coordinator compute)
	wireNS   *obs.Histogram // query.wire_ns: measured per-query wire time (transport mode)
	totalNS  *obs.Histogram // query.total_ns

	// classTotalNS splits query.total_ns by executability class, indexed by
	// sparql.Class — the per-class latency distributions BENCH_online.json
	// reports (query.total_ns.internal etc.).
	classTotalNS [sparql.ClassNonIEQ + 1]*obs.Histogram

	// operatorTotalNS splits query.total_ns by operator class
	// (query.total_ns.optional etc.), keyed by Query.OperatorClass values.
	operatorTotalNS map[string]*obs.Histogram

	buildRows  *obs.Histogram // join.build_rows: hash-index side sizes
	probeRows  *obs.Histogram // join.probe_rows: probe side sizes
	outputRows *obs.Histogram // join.output_rows: per-join result sizes
}

// newClusterMetrics resolves the handles; a nil registry yields the
// all-disabled zero value.
func newClusterMetrics(r *obs.Registry) clusterMetrics {
	if r == nil {
		return clusterMetrics{}
	}
	m := clusterMetrics{
		queries:         r.Counter("query.count"),
		independent:     r.Counter("query.independent"),
		tuplesShipped:   r.Counter("net.tuples_shipped"),
		bytesShipped:    r.Counter("net.bytes_shipped"),
		semijoinRemoved: r.Counter("semijoin.rows_removed"),
		hashJoins:       r.Counter("join.hash_joins"),
		readRetries:     r.Counter("cluster.read_retries"),
		decompNS:        r.Histogram("query.decompose_ns"),
		localNS:         r.Histogram("query.local_ns"),
		joinNS:          r.Histogram("query.join_ns"),
		wireNS:          r.Histogram("query.wire_ns"),
		totalNS:         r.Histogram("query.total_ns"),
		buildRows:       r.Histogram("join.build_rows"),
		probeRows:       r.Histogram("join.probe_rows"),
		outputRows:      r.Histogram("join.output_rows"),
	}
	for c := range m.classTotalNS {
		m.classTotalNS[c] = r.Histogram("query.total_ns." + sparql.Class(c).String())
	}
	m.operatorTotalNS = make(map[string]*obs.Histogram, len(sparql.OperatorClasses))
	for _, op := range sparql.OperatorClasses {
		m.operatorTotalNS[op] = r.Histogram("query.total_ns." + op)
	}
	return m
}

// observeJoin records one hash join's build/probe/output sizes. Safe on a
// nil receiver so package-level join helpers can be called without a
// cluster (tests, partial evaluation assembly).
func (m *clusterMetrics) observeJoin(build, probe, output int) {
	if m == nil {
		return
	}
	m.hashJoins.Inc()
	m.buildRows.Observe(int64(build))
	m.probeRows.Observe(int64(probe))
	m.outputRows.Observe(int64(output))
}

// observeStats records one finished execution's per-stage stats.
func (m *clusterMetrics) observeStats(s *Stats) {
	if m == nil {
		return
	}
	m.queries.Inc()
	if s.Independent {
		m.independent.Inc()
	}
	m.tuplesShipped.Add(int64(s.TuplesShipped))
	m.semijoinRemoved.Add(int64(s.SemijoinRemoved))
	if s.BytesShipped > 0 {
		m.bytesShipped.Add(s.BytesShipped)
		m.wireNS.ObserveDuration(s.WireTime)
	}
	m.decompNS.ObserveDuration(s.DecompTime)
	m.localNS.ObserveDuration(s.LocalTime)
	m.joinNS.ObserveDuration(s.JoinTime)
	m.totalNS.ObserveDuration(s.Total())
	if c := int(s.Class); c >= 0 && c < len(m.classTotalNS) {
		m.classTotalNS[c].ObserveDuration(s.Total())
	}
	if h, ok := m.operatorTotalNS[s.Operator]; ok {
		h.ObserveDuration(s.Total())
	}
}
