package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one client operation share
// Op; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay only a nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, opID int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: opID, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// timed runs fn inside a root span.
func (t *tracer) timed(name string, opID int64, fn func()) {
	start := time.Now()
	fn()
	t.add(name, 0, opID, start, time.Now())
}

// selfTimes returns, per span name, every span's self time: its duration
// minus the part of its interval that its children cover. With joined set
// it keeps only spans that have children.
func (t *tracer) selfTimes(joined bool) map[string][]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]int64{}
	for _, s := range t.spans {
		kids := children[s.ID]
		if joined && len(kids) == 0 {
			continue
		}
		out[s.Name] = append(out[s.Name], s.End-s.Start-covered(s, kids))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			total += curHi - curLo
			curLo, curHi = lo, hi
			continue
		}
		curHi = max(curHi, hi)
	}
	return total + curHi - curLo
}

// write stores the spans as JSON lines under dir, one file per run.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.jsonl", workload, seed, os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
