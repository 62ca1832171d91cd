package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"
)

// forEachParallel runs f(0..n-1) on up to workers goroutines and returns
// the first error.
func forEachParallel(n, workers int, f func(i int) error) error {
	if workers < 1 {
		workers = 1
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// picker yields the index of the next query a client sends.
type picker func() int

// shuffledLaps visits 0..n-1 in a fresh seeded permutation lap after lap:
// every query exactly as often as every other (so a window's mix does not
// depend on how the draws fell), in an order the SUT cannot anticipate.
func shuffledLaps(n int, seed int64) picker {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	i := 0
	return func() int {
		if i == n {
			rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			i = 0
		}
		q := perm[i]
		i++
		return q
	}
}

// zipfPick yields ranks 0..n-1 with probability ∝ 1/(rank+1)^s; a query's
// rank is its position in the pool, which is built in popularity order (see
// LUBMPool). The uniform variates behind the draws are a seeded additive
// golden-ratio sequence, not a pseudo-random stream: over any window each
// query is drawn as often as the distribution says, within one or two, so
// throughput does not depend on whether the rare 20 ms queries at the cold
// end happened to come up 10 times or 25.
func zipfPick(n int, s float64, seed int64) picker {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	u := rand.New(rand.NewSource(seed)).Float64()
	return func() int {
		u += 0.6180339887498949
		if u >= 1 {
			u--
		}
		k := sort.SearchFloat64s(cdf, u)
		if k >= n {
			k = n - 1
		}
		return k
	}
}

// clientLog is what one closed-loop client saw.
type clientLog struct {
	latMS     []float64
	attempted int
	errors    int // op returned an error other than a rejection
	rejected  int // admission queue full
	wrong     int // reply disagreed with the golden answer
	checked   int // replies compared with a golden fingerprint
	hits      int
}

// checker decides whether reply r to query qi is right. It runs after the
// latency clock stops; ok=false counts as a wrong answer, checked=false
// means the reply could not be judged in-window (see zipf_rw).
type checker func(qi int, r OpResult) (ok, checked bool)

// closedLoop runs clients goroutines against sut until deadline. Each
// sends its next query only after the previous reply, so a slower SUT
// receives less load.
func closedLoop(ctx context.Context, sut *SUT, qs []Query, pickers []picker, newCheck func() checker, deadline time.Time) []clientLog {
	logs := make([]clientLog, len(pickers))
	var wg sync.WaitGroup
	for c := range pickers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := &logs[c]
			log.latMS = make([]float64, 0, 1<<14)
			next, check := pickers[c], newCheck()
			for time.Now().Before(deadline) {
				qi := next()
				t0 := time.Now()
				r, err := sut.Op(ctx, qs[qi].Text)
				lat := time.Since(t0)
				log.attempted++
				switch {
				case err == nil:
				case isRejected(err):
					log.rejected++
					continue
				default:
					log.errors++
					continue
				}
				log.latMS = append(log.latMS, float64(lat.Nanoseconds())/1e6)
				if r.CacheHit {
					log.hits++
				}
				ok, checked := check(qi, r)
				if checked {
					log.checked++
				}
				if !ok {
					log.wrong++
				}
			}
		}(c)
	}
	wg.Wait()
	return logs
}

// fingerprintChecker returns a per-client checker that compares each
// reply's order-free fingerprint with the golden answer's. A cache hit
// returns the very table the miss computed, so the client remembers its
// last verdict per query by table identity and a 5 µs hit is not followed
// by a rescan of its rows. skip marks queries whose answer the concurrent
// writer may legitimately change.
func fingerprintChecker(golden []Answer, skip []bool) checker {
	type verdict struct {
		table any
		ok    bool
	}
	memo := make([]verdict, len(golden))
	return func(qi int, r OpResult) (bool, bool) {
		if skip != nil && skip[qi] {
			return true, false
		}
		if r.CacheHit && memo[qi].table == r.TableID() {
			return memo[qi].ok, true
		}
		rows, fp := r.Fingerprint()
		ok := rows == golden[qi].Rows && fp == golden[qi].FP
		if r.CacheHit {
			memo[qi] = verdict{r.TableID(), ok}
		}
		return ok, true
	}
}

// pacedLog is what the open-loop writer saw.
type pacedLog struct {
	latMS  []float64 // completion − due time
	lateMS []float64 // start − due time: how late the generator ran
	errors int
}

// runPaced calls do(i) for i = 0,1,… at start + i·interval until the next
// due time would reach deadline. It is an open loop on one goroutine: a
// slow call delays the ones behind it, and both delays are visible —
// latency is counted from the due instant, not from when the call could
// finally start, and lateness is reported beside it. now and sleep are
// injectable so the accounting can be tested against a fake clock.
func runPaced(start, deadline time.Time, interval time.Duration, do func(i int) error,
	now func() time.Time, sleep func(time.Duration)) pacedLog {
	var log pacedLog
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			return log
		}
		if wait := due.Sub(now()); wait > 0 {
			sleep(wait)
		}
		begin := now()
		if err := do(i); err != nil {
			log.errors++
		}
		end := now()
		late := begin.Sub(due)
		if late < 0 {
			late = 0
		}
		log.lateMS = append(log.lateMS, float64(late.Nanoseconds())/1e6)
		log.latMS = append(log.latMS, float64(end.Sub(due).Nanoseconds())/1e6)
	}
}

// writerPool is the fixed, seeded set of triples the zipf_rw writer cycles
// through. Slice i holds perBatch triples; a batch inserts one slice and
// deletes the slice inserted residue batches earlier, so the graph carries
// a constant residue·perBatch extra triples and ends where it began. Every
// triple joins two vertices nothing else mentions, labelled with one of
// the workload's own properties: the data the readers query is not
// changed, the layers the write passes through are all exercised.
type writerPool struct {
	slices [][]UpdateOp // insert form
}

const (
	writerSlices   = 64
	writerResidue  = 50
	writerPerBatch = 16 // inserts per batch; a steady-state batch adds as many deletes
	writerRate     = 20 // batches per second
)

func newWriterPool(props []string, seed int64) *writerPool {
	rng := rand.New(rand.NewSource(seed))
	w := &writerPool{}
	v := 0
	for i := 0; i < writerSlices; i++ {
		var sl []UpdateOp
		for j := 0; j < writerPerBatch; j++ {
			sl = append(sl, UpdateOp{
				Insert: true,
				S:      writerVertex(v),
				P:      props[rng.Intn(len(props))],
				O:      writerVertex(v + 1),
			})
			v += 2
		}
		w.slices = append(w.slices, sl)
	}
	return w
}

func writerVertex(i int) string {
	return "http://bench.example.org/writer/v" + strconv.Itoa(i)
}

func (w *writerPool) insert(i int) []UpdateOp { return w.slices[i%len(w.slices)] }

func (w *writerPool) delete(i int) []UpdateOp {
	src := w.slices[i%len(w.slices)]
	out := make([]UpdateOp, len(src))
	for j, op := range src {
		op.Insert = false
		out[j] = op
	}
	return out
}

// steady returns batch i of the stationary phase: insert slice residue+i,
// delete slice i.
func (w *writerPool) steady(i int) []UpdateOp {
	return append(append([]UpdateOp(nil), w.insert(writerResidue+i)...), w.delete(i)...)
}

// live returns the slices present after n steady batches on top of the
// initial residue (slices 0..writerResidue-1).
func (w *writerPool) live(n int) []int {
	out := make([]int, 0, writerResidue)
	for i := n; i < n+writerResidue; i++ {
		out = append(out, i%len(w.slices))
	}
	return out
}
