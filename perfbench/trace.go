package main

// Spans for the traced run. Each client goroutine appends to its own
// buffer, so recording takes no lock. A span's parent is the span that
// caused it; one op's spans share an op id. Spans are kept in memory and
// written out when the run ends.
//
// A span recorded on a replica (a benchmark-owned advisor, solver or
// store that reproduces work the daemon did inside its ServeHTTP span)
// runs after the op it explains, so it lies outside its parent's
// interval. Self time is therefore the span's duration minus the measure
// of the union of its children's intervals wherever they lie, clipped at
// zero; the clipped excess is reported as the gap between the layer
// times and the op's wall time.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

type span struct {
	name       string
	op         int   // op index within its client
	parent     int32 // index in the client's buffer, -1 for an op's root
	start, end int64 // ns since the tracer's epoch
}

type tracer struct {
	epoch time.Time
	bufs  [][]span // per client
}

func newTracer(clients int) *tracer {
	return &tracer{epoch: time.Now(), bufs: make([][]span, clients)}
}

// begin opens a span on client c's buffer and returns its id. A nil
// tracer records nothing.
func (t *tracer) begin(c, op int, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	t.bufs[c] = append(t.bufs[c], span{name: name, op: op, parent: parent, start: int64(time.Since(t.epoch))})
	return int32(len(t.bufs[c]) - 1)
}

func (t *tracer) end(c int, id int32) {
	if t == nil {
		return
	}
	t.bufs[c][id].end = int64(time.Since(t.epoch))
}

// unionLen is the total length covered by the intervals [s, e).
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			if x[1] > curE {
				curE = x[1]
			}
		default:
			total += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTimes returns each span's self time — its duration minus the union
// of its children's intervals, clipped at zero — and the total clipped.
func selfTimes(spans []span) (self []int64, gap int64) {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self = make([]int64, len(spans))
	for i, s := range spans {
		v := s.end - s.start - unionLen(kids[i])
		if v < 0 {
			gap -= v
			v = 0
		}
		self[i] = v
	}
	return self, gap
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls     int
	dur, self int64 // ns, summed
}

// traceSummary is what the traced run reports about its spans.
type traceSummary struct {
	byName map[string]*layerStat
	ops    int   // root spans
	wall   int64 // ns, summed over root spans
	gap    int64 // ns by which child spans overran their parents
}

func (t *tracer) summarize() traceSummary {
	sum := traceSummary{byName: map[string]*layerStat{}}
	for _, buf := range t.bufs {
		self, gap := selfTimes(buf)
		sum.gap += gap
		for i, s := range buf {
			st := sum.byName[s.name]
			if st == nil {
				st = &layerStat{}
				sum.byName[s.name] = st
			}
			st.calls++
			st.dur += s.end - s.start
			st.self += self[i]
			if s.parent < 0 {
				sum.ops++
				sum.wall += s.end - s.start
			}
		}
	}
	return sum
}

// meanDur is the mean duration of one call of the named span, in units
// of unit (0 when the layer never ran).
func (s traceSummary) meanDur(name string, unit time.Duration) float64 {
	st := s.byName[name]
	if st == nil || st.calls == 0 {
		return 0
	}
	return float64(st.dur) / float64(st.calls) / float64(unit)
}

// selfPerOp is the named span's self time per op, in units of unit.
func (s traceSummary) selfPerOp(name string, unit time.Duration) float64 {
	st := s.byName[name]
	if st == nil || s.ops == 0 {
		return 0
	}
	return float64(st.self) / float64(s.ops) / float64(unit)
}

// breakdown prints each span name's self time per op and its share of
// the op wall time; the shares and the gap line add up to 100%.
func (s traceSummary) breakdown() {
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	if s.ops == 0 || s.wall == 0 {
		return
	}
	fmt.Printf("self time per op over %d traced ops (mean op wall %.1f µs):\n", s.ops, float64(s.wall)/float64(s.ops)/1e3)
	for _, n := range names {
		st := s.byName[n]
		fmt.Printf("  %-28s %12.1f µs  %6.2f%%  (%d calls)\n", n, float64(st.self)/float64(s.ops)/1e3, 100*float64(st.self)/float64(s.wall), st.calls)
	}
	fmt.Printf("  %-28s %12.1f µs  %6.2f%%  (replica layer time beyond the op's wall time)\n", "gap", -float64(s.gap)/float64(s.ops)/1e3, -100*float64(s.gap)/float64(s.wall))
}

// spanRecord is one span as written to the span dump.
type spanRecord struct {
	Client  int    `json:"client"`
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for c, buf := range t.bufs {
		for i, s := range buf {
			if err := enc.Encode(spanRecord{Client: c, Op: s.op, ID: i, Parent: s.parent, Name: s.name, StartNs: s.start, EndNs: s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
