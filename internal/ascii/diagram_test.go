package ascii

import (
	"strings"
	"testing"

	"kset/internal/mpnet"
	"kset/internal/protocols/mp"
	"kset/internal/types"
)

func TestDiagramRendersRunEvents(t *testing.T) {
	d := NewDiagram(3)
	_, err := mpnet.Run(mpnet.Config{
		N: 3, T: 1, K: 2,
		Inputs:      []types.Value{1, 2, 3},
		NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
		Crash:       types.ScriptedCrashes{{Proc: 2, Kind: types.CrashAtEvent, Index: 1}},
		Seed:        3,
		Trace:       d.Observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := d.Render()
	if !strings.HasPrefix(out, "p1  p2  p3") {
		t.Errorf("header missing:\n%s", out)
	}
	for _, want := range []string{"DECIDES", "CRASHES", "->", "<-"} {
		if !strings.Contains(out, want) {
			t.Errorf("diagram missing %q:\n%s", want, out)
		}
	}
	// Lane markers appear in the correct columns: a decide by p1 puts 'D'
	// in column 0.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "p1 DECIDES") && !strings.HasPrefix(line, "D") {
			t.Errorf("p1 decision not in lane 0: %q", line)
		}
	}
}

func TestDiagramElidesLongRuns(t *testing.T) {
	d := NewDiagram(2)
	d.MaxRows = 10
	for i := 0; i < 50; i++ {
		d.Observe(mpnet.TraceEvent{Type: mpnet.EvSend, Proc: 0, Peer: 1})
	}
	out := d.Render()
	if !strings.Contains(out, "40 events elided") {
		t.Errorf("elision marker missing:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines > 13 {
		t.Errorf("too many rendered lines: %d", lines)
	}
}

func TestDiagramLenCountsEvents(t *testing.T) {
	d := NewDiagram(2)
	if d.Len() != 0 {
		t.Fatal("fresh diagram not empty")
	}
	d.Observe(mpnet.TraceEvent{Type: mpnet.EvSend})
	d.Observe(mpnet.TraceEvent{Type: mpnet.EvDeliver})
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}
