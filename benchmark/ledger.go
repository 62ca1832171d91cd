package main

import (
	"math"
	"sort"
)

// buildLedger turns the traced pass's spans into per-layer numbers. hit[i]
// says op i of pass A was a cache hit; direct[i] that op i also ran below
// the scheduler in pass B. Times are means per op, per site call or per
// Match call as each metric's name says. opWallMS is the mean traced op,
// parse through render: the numerator of trace.overhead_ratio.
func buildLedger(spans []Span, hit []bool, direct map[int]bool) (L map[string]float64, opWallMS float64) {
	L = map[string]float64{}
	self := selfTimes(spans)
	kids := make(map[int][]int) // parent span ID → child span IDs
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}

	// Index pass A (op roots) and pass B (plan/execute) by op number.
	type opA struct{ root, parse, do, render int }
	type opB struct{ plan, exec int }
	as := make(map[int]*opA)
	bs := make(map[int]*opB)
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanOp:
			a := &opA{root: i, parse: -1, do: -1, render: -1}
			for _, k := range kids[i] {
				switch spans[k].Name {
				case spanParse:
					a.parse = k
				case spanDo:
					a.do = k
				case spanRender:
					a.render = k
				}
			}
			as[s.Op] = a
		case spanPlan, spanExecute:
			b := bs[s.Op]
			if b == nil {
				b = &opB{plan: -1, exec: -1}
				bs[s.Op] = b
			}
			if s.Name == spanPlan {
				b.plan = i
			} else {
				b.exec = i
			}
		}
	}
	dur := func(id int) float64 {
		if id < 0 {
			return 0
		}
		return float64(spans[id].Dur())
	}

	var wall, parse, render, hitDo, plan, exec, coord []float64
	var subs, calls, bytes float64
	for op, a := range as {
		wall = append(wall, dur(a.root))
		parse = append(parse, dur(a.parse))
		if a.render >= 0 {
			render = append(render, dur(a.render))
		}
		if op < len(hit) && hit[op] && a.do >= 0 {
			hitDo = append(hitDo, dur(a.do))
		}
	}
	var slowest []float64
	for _, b := range bs {
		if b.plan < 0 || b.exec < 0 {
			continue
		}
		plan = append(plan, dur(b.plan))
		exec = append(exec, dur(b.exec))
		coord = append(coord, float64(self[b.exec]))
		for _, k := range kids[b.exec] {
			if spans[k].Name != spanRPC {
				continue
			}
			calls++
			bytes += float64(spans[k].Bytes)
			if spans[k].Site == 0 {
				subs += float64(spans[k].Subs)
			}
		}
		for _, round := range rounds(spans, kids[b.exec]) {
			if len(round) < 2 {
				continue
			}
			var mx, sum float64
			for _, k := range round {
				d := dur(k)
				sum += d
				if d > mx {
					mx = d
				}
			}
			slowest = append(slowest, safeDiv(mx, sum/float64(len(round))))
		}
	}
	nB := float64(len(exec))

	opWallMS = mean(wall) / 1e6
	L["sparql.parse_us"] = mean(parse) / 1e3
	L["frontend.render_us"] = mean(render) / 1e3
	L["serve.hit_us"] = mean(hitDo) / 1e3
	L["cluster.plan_us"] = mean(plan) / 1e3
	L["cluster.execute_ms"] = mean(exec) / 1e6
	L["cluster.coord_self_ms"] = mean(coord) / 1e6
	L["cluster.subqueries_per_op"] = safeDiv(subs, nB)
	L["cluster.site_calls_per_op"] = safeDiv(calls, nB)
	L["transport.bytes_per_op"] = safeDiv(bytes, nB)
	L["transport.slowest_site_ratio"] = mean(slowest)

	// Site calls below ExecutePlan (pass B), with their replayed parts.
	var rpc, qcodec, tcodec, wire, matchPerCall, update, apply []float64
	var matchNS, matchCalls, matchRows float64
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanRPC:
			if s.MatchCalls == 0 {
				continue // pass A's call; pass B's twin carries the replay
			}
			rpc = append(rpc, dur(i))
			qcodec = append(qcodec, float64(s.QueryCodecNS))
			tcodec = append(tcodec, float64(s.TableCodecNS))
			wire = append(wire, dur(i)-float64(s.QueryCodecNS+s.MatchNS+s.TableCodecNS))
			matchPerCall = append(matchPerCall, float64(s.MatchNS)/float64(s.MatchCalls))
			matchNS += float64(s.MatchNS)
			matchCalls += float64(s.MatchCalls)
			matchRows += float64(s.Rows)
		case spanUpdateRPC:
			update = append(update, dur(i))
		case spanApply:
			apply = append(apply, dur(i))
		}
	}
	sort.Float64s(rpc)
	sort.Float64s(matchPerCall)
	L["transport.rpc_ms"] = mean(rpc) / 1e6
	L["transport.rpc_p95_ms"] = percentile(rpc, 0.95) / 1e6
	L["transport.query_codec_us"] = mean(qcodec) / 1e3
	L["transport.table_codec_ms"] = mean(tcodec) / 1e6
	L["transport.wire_self_ms"] = mean(wire) / 1e6
	L["transport.update_rpc_ms"] = mean(update) / 1e6
	L["store.match_ms"] = safeDiv(matchNS, matchCalls) / 1e6
	L["store.match_p95_ms"] = percentile(matchPerCall, 0.95) / 1e6
	L["store.match_rows_per_call"] = safeDiv(matchRows, matchCalls)
	L["cluster.apply_ms"] = mean(apply) / 1e6

	// The ledger proper, over ops that missed the cache in pass A and ran
	// below the scheduler in pass B: do the parts, each measured on its
	// own, add up to the op? serve.self is what the scheduler adds around
	// Plan and ExecutePlan (taken over the whole op set, because the two
	// passes' per-op noise does not cancel op by op); the slowest site of
	// each fan-out round sets that round's time; a replay that outlasts
	// its RPC is not allowed to shrink the wire share below zero, so
	// passes that disagree push the ratio off 1.
	var sumParse, sumDo, sumPlan, sumExec, sumSites, sumCoord, sumRender, sumWall float64
	n := 0
	for op, a := range as {
		b := bs[op]
		if b == nil || b.plan < 0 || b.exec < 0 || !direct[op] || (op < len(hit) && hit[op]) || a.do < 0 {
			continue
		}
		n++
		for _, round := range rounds(spans, kids[b.exec]) {
			var mx float64
			for _, k := range round {
				s := &spans[k]
				replayed := float64(s.QueryCodecNS + s.MatchNS + s.TableCodecNS)
				if d := math.Max(dur(k), replayed); d > mx {
					mx = d
				}
			}
			sumSites += mx
		}
		sumParse += dur(a.parse)
		sumDo += dur(a.do)
		sumPlan += dur(b.plan)
		sumExec += dur(b.exec)
		sumCoord += float64(self[b.exec])
		sumRender += dur(a.render)
		sumWall += dur(a.root)
	}
	serveSelf := math.Max(0, sumDo-sumPlan-sumExec)
	L["serve.self_us"] = safeDiv(serveSelf, float64(n)) / 1e3
	L["ledger.sum_ratio"] = safeDiv(sumParse+serveSelf+sumPlan+sumSites+sumCoord+sumRender, sumWall)
	return L, opWallMS
}

// rounds groups the site-call spans among ids into fan-out rounds: calls
// that overlap in time belong to one round, and a call starting after
// every earlier one has ended opens the next. A plain BGP has one round of
// k calls; an OPTIONAL or UNION fold has one per leaf.
func rounds(spans []Span, ids []int) [][]int {
	var rpc []int
	for _, k := range ids {
		if spans[k].Name == spanRPC {
			rpc = append(rpc, k)
		}
	}
	sort.Slice(rpc, func(i, j int) bool { return spans[rpc[i]].Start < spans[rpc[j]].Start })
	var out [][]int
	var end int64
	for _, k := range rpc {
		if len(out) == 0 || spans[k].Start >= end {
			out = append(out, nil)
			end = spans[k].End
		}
		out[len(out)-1] = append(out[len(out)-1], k)
		if spans[k].End > end {
			end = spans[k].End
		}
	}
	return out
}
