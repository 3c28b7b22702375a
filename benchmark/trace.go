package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Parent is the index of the enclosing span in
// the same file, or -1.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	Tags     string `json:"tags,omitempty"`
}

// recorder keeps spans in memory until the workload ends. A nil
// recorder records nothing, so untraced runs pay one nil check per
// call. It is owned by one goroutine; concurrent clients each take
// their own with fork and hand it back with join.
type recorder struct {
	workload string
	epoch    time.Time
	pass     int
	spans    []span
	open     []int // stack of open span indices
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

func (r *recorder) setPass(p int) {
	if r != nil {
		r.pass = p
	}
}

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{
		Name: name, StartNS: time.Since(r.epoch).Nanoseconds(),
		Parent: parent, Workload: r.workload, Pass: r.pass,
	})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned. Spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].EndNS = time.Since(r.epoch).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

func (r *recorder) tag(id int, tags string) {
	if r != nil {
		r.spans[id].Tags = tags
	}
}

// fork returns a recorder sharing r's clock for use by another
// goroutine; its spans hang under r's innermost open span once joined.
func (r *recorder) fork() *recorder {
	if r == nil {
		return nil
	}
	return &recorder{workload: r.workload, epoch: r.epoch, pass: r.pass}
}

// join appends a forked recorder's spans, re-rooting them under r's
// innermost open span. Call after the forked goroutine has finished.
func (r *recorder) join(child *recorder) {
	if r == nil || child == nil {
		return
	}
	root := -1
	if len(r.open) > 0 {
		root = r.open[len(r.open)-1]
	}
	off := len(r.spans)
	for _, s := range child.spans {
		if s.Parent < 0 {
			s.Parent = root
		} else {
			s.Parent += off
		}
		r.spans = append(r.spans, s)
	}
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover. Children recorded by different goroutines may
// overlap, so the cover is the union of their intervals, not the sum.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNS - s.StartNS
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered := s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, covered), spans[k].EndNS
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(r.spans)
	for i, s := range r.spans {
		rec := struct {
			ID int `json:"id"`
			span
			SelfNS int64 `json:"self_ns"`
		}{i, s, self[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
