package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one GA candidate or one
// request share a trace ID; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run writes them out. The
// replays that record spans run on one goroutine, so it is unlocked.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, trace, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// write emits every span as one JSON object per line.
func (r *recorder) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// layerTimes counts the spans of one name and sums their self time:
// each span's duration minus the part of it its child spans cover.
type layerTimes struct {
	Count  int
	SelfNs int64
}

func summarize(spans []span) map[string]*layerTimes {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTimes{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.SelfNs += selfTime(s, children[s.ID])
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals,
// each clipped to s.
func selfTime(s span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return s.End - s.Start - covered
}
