package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one timed interval the benchmark recorded around a layer call,
// or rebuilt from the phase stamps a traced request carried. Spans of one
// request share TraceID; Parent is the ID of the enclosing span (0 = root).
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	TraceID uint64 `json:"trace_id,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Arg     int64  `json:"arg,omitempty"`
}

// maxSpans bounds the recorder's memory; later spans are counted, not kept.
const maxSpans = 1 << 17

// recorder keeps spans in memory until the run ends. A nil recorder (the
// untraced run) records nothing.
type recorder struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

// add records a span and returns its ID for use as a parent.
func (r *recorder) add(name string, parent, traceID uint64, start, end int64, arg int64) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	id := uint64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, TraceID: traceID, Name: name, Start: start, End: end, Arg: arg})
	return id
}

// span runs fn inside a span named name.
func (r *recorder) span(name string, parent uint64, fn func(id uint64) error) error {
	start := time.Now().UnixNano()
	id := r.add(name, parent, 0, start, start, 0)
	err := fn(id)
	if r != nil && id != 0 {
		r.mu.Lock()
		r.spans[id-1].End = time.Now().UnixNano()
		r.mu.Unlock()
	}
	return err
}

// kindOf maps a span name onto the telemetry phase kind the Chrome
// exporter labels it with; execution spans of in-process layers are
// "decide" rows under their own component.
func kindOf(name string) telemetry.SpanKind {
	switch name {
	case "client.enqueue":
		return telemetry.SpanEnqueue
	case "server.wire":
		return telemetry.SpanWire
	case "server.ring_wait":
		return telemetry.SpanRingWait
	case "client.reply":
		return telemetry.SpanReply
	}
	return telemetry.SpanDecide
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Base  string  `json:"base,omitempty"`
}

// writeArtifacts writes the traced run's spans (JSON with parents, and a
// Chrome trace with one row per span name) and the per-layer table into
// dir, and prints the table.
func writeArtifacts(dir string, rec *recorder, f *figures) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec.mu.Lock()
	spans := rec.spans
	dropped := rec.dropped
	rec.mu.Unlock()

	b, err := json.Marshal(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{dropped, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), b, 0o644); err != nil {
		return err
	}

	comps := map[string][]telemetry.Span{}
	for _, s := range spans {
		comps[s.Name] = append(comps[s.Name], telemetry.Span{
			Seq: s.ID, TraceID: s.TraceID, Kind: kindOf(s.Name), Start: s.Start, End: s.End, Arg: s.Arg,
		})
	}
	cf, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteSpanChromeTrace(cf, comps); err != nil {
		cf.Close()
		return err
	}
	if err := cf.Close(); err != nil {
		return err
	}

	var rows []layerRow
	for _, s := range perLayer {
		rows = append(rows, layerRow{Name: s.name, Value: f.vals[s.name], Unit: s.unit, Base: f.bases[s.name]})
	}
	b, err = json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-30s %14.4f %-6s %s\n", r.Name, r.Value, r.Unit, r.Base)
	}
	fmt.Printf("per-layer table (%d spans kept, %d dropped; artifacts in %s):\n%s", len(spans), dropped, dir, sb.String())
	return nil
}

// spanSummary prints the self time of each span name: its duration minus
// the part its children cover, summed over spans.
func spanSummary(rec *recorder) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	child := map[uint64]int64{}
	for _, s := range rec.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	count := map[string]int{}
	for _, s := range rec.spans {
		self[s.Name] += s.End - s.Start - child[s.ID]
		count[s.Name]++
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("span self time:")
	for _, n := range names {
		fmt.Printf("  %-30s %8d spans %12.1f us self\n", n, count[n], float64(self[n])/1e3)
	}
}
