package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"splitmfg/internal/flow"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Start and End are offsets from the tracer's creation.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = no parent
	Op     int           `json:"op"`     // spans of one traced op share this
	Name   string        `json:"name"`
	Detail string        `json:"detail,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced ops pass nil and pay one pointer
// test per layer call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	op    int // ID stamped on new spans; 0 outside the traced op
	root  int // span of the traced op, parent of its layer calls
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// opRoot is the span layer calls of the traced op hang under (0 on a nil
// tracer).
func (t *tracer) opRoot() int {
	if t == nil {
		return 0
	}
	return t.root
}

// begin opens a span under parent and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// completed records a span that ended now after running for elapsed — the
// shape of the pipeline's progress events.
func (t *tracer) completed(name, detail string, parent int, elapsed time.Duration) {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op,
		Name: name, Detail: detail, Start: now - elapsed, End: now})
}

// stageSpan names the span each pipeline progress stage becomes: the
// layer that did the work, then what it did.
var stageSpan = map[flow.Stage]string{
	flow.StagePlace:         "correction.place",
	flow.StageRoute:         "correction.route",
	flow.StageLift:          "correction.lift",
	flow.StageRestore:       "correction.restore",
	flow.StageRandomize:     "randomize.randomize",
	flow.StageVerify:        "flow.verify",
	flow.StagePPA:           "timing.ppa",
	flow.StageAttack:        "attack.layer",
	flow.StageRouteWave:     "route.wave",
	flow.StageSuiteBaseline: "flow.suite_baseline",
	flow.StageSuiteCell:     "flow.suite_cell",
}

// progress turns the pipeline's stage-completion events into spans under
// parent. It returns nil on a nil tracer, so untraced ops attach no hook.
func (t *tracer) progress(parent int) flow.ProgressFunc {
	if t == nil {
		return nil
	}
	return func(ev flow.Event) {
		name, ok := stageSpan[ev.Stage]
		if !ok {
			name = "flow." + string(ev.Stage)
		}
		detail := ev.Detail
		switch {
		case ev.Stage == flow.StageAttack:
			detail = fmt.Sprintf("M%d %s", ev.Layer, detail)
		case ev.Bench != "":
			detail = fmt.Sprintf("%s r%d %s", ev.Bench, ev.Replicate, detail)
		case ev.Attempt > 0:
			detail = fmt.Sprintf("attempt %d %s", ev.Attempt, detail)
		}
		t.completed(name, detail, parent, ev.Elapsed)
	}
}

// durations returns the durations of every closed span with the name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// seconds sums the durations of every span with the name.
func (t *tracer) seconds(name string) float64 {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum.Seconds()
}

// maxSeconds is the longest span with the name.
func (t *tracer) maxSeconds(name string) float64 {
	var m time.Duration
	for _, d := range t.durations(name) {
		m = max(m, d)
	}
	return m.Seconds()
}

// count is the number of spans with the name.
func (t *tracer) count(name string) int { return len(t.durations(name)) }

// gap is a stretch of a span that none of its leaf descendants covers.
type gap struct {
	After, Before string // neighbouring leaf spans ("" at the span's edges)
	Dur           time.Duration
}

// coverage returns the share of span root's duration covered by the union
// of its leaf descendants, and the uncovered stretches, longest first.
func (t *tracer) coverage(root int) (float64, []gap) {
	children := map[int][]int{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	var leaves []span
	var walk func(id int)
	walk = func(id int) {
		for _, c := range children[id] {
			if len(children[c]) == 0 {
				leaves = append(leaves, t.spans[c-1])
			}
			walk(c)
		}
	}
	walk(root)
	r := t.spans[root-1]
	if r.End <= r.Start {
		return 0, nil
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Start < leaves[j].Start })
	var covered time.Duration
	var gaps []gap
	cursor, prev := r.Start, ""
	for _, l := range leaves {
		lo, hi := max(l.Start, cursor), min(l.End, r.End)
		if lo > cursor {
			gaps = append(gaps, gap{After: prev, Before: l.Name, Dur: lo - cursor})
		}
		if hi > lo {
			covered += hi - lo
			cursor = hi
			prev = l.Name
		}
	}
	if r.End > cursor {
		gaps = append(gaps, gap{After: prev, Dur: r.End - cursor})
	}
	slices.SortStableFunc(gaps, func(a, b gap) int { return int(b.Dur - a.Dur) })
	return covered.Seconds() / (r.End - r.Start).Seconds(), gaps
}

// write stores the spans as JSON lines, creating the file's directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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
