package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int           // index into tracer.spans, -1 for a root
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer times calls into the program's layers. Every call is timed,
// because the end-to-end metrics need the durations too; spans are
// kept only when the tracer is on, in memory, until the run writes
// them out. Calls are nested on one goroutine, so a stack gives each
// span its parent.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	stack []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// do runs fn as the span name and returns its wall time.
func (t *tracer) do(name string, fn func()) time.Duration {
	if !t.on {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.epoch)})
	t.stack = append(t.stack, idx)
	fn()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[idx].End = time.Since(t.epoch)
	return t.spans[idx].dur()
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // total minus the time covered by child spans
	// Root names the root span the spans ran under; RootTotal is its
	// duration.
	Root      string
	RootTotal time.Duration
}

// layers folds the recorded spans into one row per name, in order of
// first appearance.
func (t *tracer) layers() []layerRow {
	child := make([]time.Duration, len(t.spans))
	root := make([]int, len(t.spans))
	for i, s := range t.spans {
		root[i] = i
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
			root[i] = root[s.Parent] // parents precede their children
		}
	}
	var rows []layerRow
	at := map[string]int{}
	for i, s := range t.spans {
		r, ok := at[s.Name]
		if !ok {
			r = len(rows)
			at[s.Name] = r
			rt := t.spans[root[i]]
			rows = append(rows, layerRow{Name: s.Name, Root: rt.Name, RootTotal: rt.dur()})
		}
		rows[r].Count++
		rows[r].Total += s.dur()
		rows[r].Self += s.dur() - child[i]
	}
	return rows
}

// sum returns the total wall time of every span called name.
func (t *tracer) sum(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microseconds), loadable in chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i}
		if s.Parent >= 0 {
			args["parent"] = s.Parent
		}
		evs[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
		}
	}
	b, err := json.MarshalIndent(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
