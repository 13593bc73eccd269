package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.SetLevel(LevelFull)
	c.SetDev("dev")
	if c.Full() {
		t.Fatal("nil collector must not report Full")
	}
	id := c.Begin(time.Second, 0, "op", PhaseOp)
	if id != 0 {
		t.Fatalf("nil Begin returned %d, want 0", id)
	}
	c.End(2*time.Second, id)
	c.Counter(time.Second, "q", 3)
	c.Emit(time.Second, KindAcquire, 0, 0, "r", "", 1)
	if c.Events() != nil || c.Len() != 0 {
		t.Fatal("nil collector must hold no events")
	}
	if c.Hash() != Hash(nil) {
		t.Fatal("nil collector hash must equal empty hash")
	}
}

func TestCollectorSpans(t *testing.T) {
	c := NewCollector()
	c.SetDev("sdf")
	root := c.Begin(0, 0, "sdf/write", PhaseOp)
	child := c.Begin(time.Millisecond, root, "nand/program", PhaseFlash)
	c.End(2*time.Millisecond, child)
	c.End(3*time.Millisecond, root)
	evs := c.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Kind != KindSpanBegin || evs[0].Span != root || evs[0].Parent != 0 {
		t.Fatalf("bad root begin: %+v", evs[0])
	}
	if evs[1].Parent != root {
		t.Fatalf("child parent = %d, want %d", evs[1].Parent, root)
	}
	if evs[1].Dev != "sdf" {
		t.Fatalf("dev label = %q", evs[1].Dev)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d", i, ev.Seq)
		}
	}
}

func TestLevelGating(t *testing.T) {
	c := NewCollector()
	if c.Full() {
		t.Fatal("default level must be spans-only")
	}
	c.SetLevel(LevelFull)
	if !c.Full() {
		t.Fatal("LevelFull must report Full")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindSpanBegin; k <= KindCounter; k++ {
		name := k.String()
		if name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := KindFromString(name)
		if !ok || got != k {
			t.Fatalf("round trip of %q: got %v ok=%v", name, got, ok)
		}
	}
	if _, ok := KindFromString("bogus"); ok {
		t.Fatal("unknown kind name must not parse")
	}
}

func sampleEvents() []Event {
	c := NewCollector()
	c.SetDev("sdf")
	op := c.Begin(0, 0, "sdf/write", PhaseOp)
	q := c.Begin(time.Microsecond, op, "chan/queue", PhaseQueue)
	c.End(11*time.Microsecond, q)
	f := c.Begin(11*time.Microsecond, op, "nand/program", PhaseFlash)
	c.End(time.Millisecond, f)
	c.Counter(time.Millisecond, "chan0/qdepth", 2)
	c.End(time.Millisecond+time.Microsecond, op)
	return c.Events()
}

func TestJSONLRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip lost events: %d vs %d", len(back), len(events))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, back[i], events[i])
		}
	}
}

func TestJSONLDeterministic(t *testing.T) {
	events := sampleEvents()
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("JSONL export is not byte-stable")
	}
	if Hash(events) != Hash(sampleEvents()) {
		t.Fatal("hash of identical streams differs")
	}
	other := sampleEvents()
	other[0].At++
	if Hash(events) == Hash(other) {
		t.Fatal("hash failed to distinguish different streams")
	}
}

func TestSortedEventsCanonicalOrder(t *testing.T) {
	// A collector reused across sequential simulations restarts the
	// clock; exporters must re-sort by (At, Seq).
	events := []Event{
		{At: time.Second, Seq: 1, Kind: KindCounter, Name: "a"},
		{At: time.Millisecond, Seq: 2, Kind: KindCounter, Name: "b"},
		{At: time.Millisecond, Seq: 3, Kind: KindCounter, Name: "c"},
	}
	out := sortedEvents(events)
	if out[0].Name != "b" || out[1].Name != "c" || out[2].Name != "a" {
		t.Fatalf("bad canonical order: %v %v %v", out[0].Name, out[1].Name, out[2].Name)
	}
	// Input untouched.
	if events[0].Name != "a" {
		t.Fatal("sortedEvents mutated its input")
	}
}

func TestWriteChromeValidAndStable(t *testing.T) {
	events := sampleEvents()
	var a, b bytes.Buffer
	if err := WriteChrome(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, events); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(a.Bytes()) {
		t.Fatalf("chrome export is not valid JSON:\n%s", a.String())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chrome export is not byte-stable")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var complete, counter, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
		case "C":
			counter++
		case "M":
			meta++
		}
	}
	// sampleEvents holds 3 spans, 1 counter, and one device label.
	if complete != 3 || counter != 1 || meta != 1 {
		t.Fatalf("chrome events: %d complete, %d counter, %d meta", complete, counter, meta)
	}
}

func TestSummarize(t *testing.T) {
	stats := Summarize(sampleEvents())
	if len(stats) != 3 {
		t.Fatalf("got %d stat rows, want 3", len(stats))
	}
	// Pipeline order: op before queue before flash.
	if stats[0].Phase != PhaseOp || stats[1].Phase != PhaseQueue || stats[2].Phase != PhaseFlash {
		t.Fatalf("bad phase order: %s %s %s", stats[0].Phase, stats[1].Phase, stats[2].Phase)
	}
	q := stats[1]
	if q.Name != "chan/queue" || q.Count != 1 || q.Mean != 10*time.Microsecond {
		t.Fatalf("queue row: %+v", q)
	}
	if q.P50 != 10*time.Microsecond || q.Max != 10*time.Microsecond {
		t.Fatalf("queue percentiles: %+v", q)
	}
	if q.CV != 0 {
		t.Fatalf("single-sample CV = %v, want 0", q.CV)
	}
}

func TestSummarizeIgnoresUnclosed(t *testing.T) {
	c := NewCollector()
	c.Begin(0, 0, "dangling", PhaseOp)
	done := c.Begin(time.Millisecond, 0, "done", PhaseOp)
	c.End(2*time.Millisecond, done)
	stats := Summarize(c.Events())
	if len(stats) != 1 || stats[0].Name != "done" {
		t.Fatalf("unclosed span not ignored: %+v", stats)
	}
}

func TestFormatSummary(t *testing.T) {
	out := FormatSummary(Summarize(sampleEvents()))
	if !strings.Contains(out, "device") || !strings.Contains(out, "phase") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "nand/program") || !strings.Contains(out, "chan/queue") {
		t.Fatalf("missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want header + 3 rows:\n%s", len(lines), out)
	}
}

// TestSummaryPercentilesAreNearestRank checks p50 and p99 on groups of
// 1, 2, 3 and 100 spans lasting 1..n ms, closed in reverse order: the
// p-th percentile is the ceil(p/100*n)-th smallest duration, so a
// group of two reports its larger span as p99.
func TestSummaryPercentilesAreNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n        int
		p50, p99 time.Duration
	}{
		{1, 1 * time.Millisecond, 1 * time.Millisecond},
		{2, 1 * time.Millisecond, 2 * time.Millisecond},
		{3, 2 * time.Millisecond, 3 * time.Millisecond},
		{100, 50 * time.Millisecond, 99 * time.Millisecond},
	} {
		c := NewCollector()
		for i := tc.n; i >= 1; i-- {
			at := time.Duration(i) * time.Second
			c.End(at+time.Duration(i)*time.Millisecond, c.Begin(at, 0, "op", PhaseOp))
		}
		stats := Summarize(c.Events())
		if len(stats) != 1 || stats[0].Count != tc.n {
			t.Fatalf("n=%d: stats %+v, want one group of %d", tc.n, stats, tc.n)
		}
		if got := stats[0]; got.P50 != tc.p50 || got.P99 != tc.p99 {
			t.Errorf("n=%d: p50/p99 = %v/%v, want %v/%v", tc.n, got.P50, got.P99, tc.p50, tc.p99)
		}
	}
}
