package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Spans of one operation share Op; Parent names the
// span that caused this one (-1 for an operation's root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`

	// Site-call spans carry what crossed the boundary.
	Site  int   `json:"site,omitempty"`
	Subs  int   `json:"subqueries,omitempty"`
	Rows  int   `json:"rows,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
	Err   bool  `json:"error,omitempty"`

	// Replay attribution: the same subqueries run directly against the
	// site's store and codecs after the pass, so the RPC's wall time can
	// be split without spans inside the program.
	QueryCodecNS int64 `json:"query_codec_ns,omitempty"`
	MatchNS      int64 `json:"match_ns,omitempty"`
	TableCodecNS int64 `json:"table_codec_ns,omitempty"`
	MatchCalls   int   `json:"match_calls,omitempty"`
}

// Dur is the span's wall time in nanoseconds.
func (s *Span) Dur() int64 { return s.End - s.Start }

// Span names: one per layer boundary the benchmark can see from outside.
const (
	spanOp        = "op"
	spanParse     = "sparql.parse"
	spanDo        = "serve.do"
	spanRender    = "frontend.render"
	spanPlan      = "cluster.plan"
	spanExecute   = "cluster.execute"
	spanRPC       = "transport.rpc"
	spanApply     = "serve.apply"
	spanUpdateRPC = "transport.update_rpc"
)

// Tracer keeps spans in memory; they are written out once, at exit.
// Begin/End are safe for the concurrent site calls of one fan-out.
type Tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span

	// op and parent are what a site-call decorator attributes its spans
	// to. The traced pass is serial, so one current value is exact. Outside
	// a scope (set-up's warm-up pass, the drain) site calls are not recorded.
	op     atomic.Int64
	parent atomic.Int64
	scoped atomic.Bool
}

func NewTracer() *Tracer {
	t := &Tracer{t0: time.Now()}
	t.parent.Store(-1)
	return t
}

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: int(t.op.Load()), Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// End closes span id; fill, when non-nil, sets its payload fields.
func (t *Tracer) End(id int, fill func(*Span)) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	if fill != nil {
		fill(&t.spans[id])
	}
	t.mu.Unlock()
}

// Update edits a closed span (replay attribution).
func (t *Tracer) Update(id int, fill func(*Span)) {
	t.mu.Lock()
	fill(&t.spans[id])
	t.mu.Unlock()
}

// SetScope makes op/parent the owner of site-call spans opened from now on.
func (t *Tracer) SetScope(op, parent int) {
	t.op.Store(int64(op))
	t.parent.Store(int64(parent))
	t.scoped.Store(true)
}

// EndScope stops site-call recording until the next SetScope.
func (t *Tracer) EndScope() { t.scoped.Store(false) }

// Scope returns the current owner of site-call spans; ok is false outside
// any scope.
func (t *Tracer) Scope() (parent int, ok bool) { return int(t.parent.Load()), t.scoped.Load() }

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// interval is a half-open [start,end) stretch of the trace clock.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by the intervals.
func unionLen(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, x := range s[1:] {
		if x.start <= cur.end {
			if x.end > cur.end {
				cur.end = x.end
			}
			continue
		}
		total += cur.end - cur.start
		cur = x
	}
	return total + cur.end - cur.start
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its direct children cover. Children running in parallel (an 8-site
// fan-out) cover their union once; a child is clipped to its parent.
func selfTimes(spans []Span) []int64 {
	children := make(map[int][]interval)
	for i := range spans {
		s := &spans[i]
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := &spans[s.Parent]
		iv := interval{s.Start, s.End}
		if iv.start < p.Start {
			iv.start = p.Start
		}
		if iv.end > p.End {
			iv.end = p.End
		}
		if iv.end > iv.start {
			children[s.Parent] = append(children[s.Parent], iv)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].Dur() - unionLen(children[i])
	}
	return self
}

// writeSpans dumps the spans as one JSON array.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
