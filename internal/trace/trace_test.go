package trace

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestStateDurations(t *testing.T) {
	rec := NewRecorder()
	rec.Record(0, "p", "run")
	rec.Record(10, "p", "wait")
	rec.Record(30, "p", "run")
	d := rec.StateDurations(40)
	if math.Abs(d["p"]["run"]-20) > 1e-12 {
		t.Errorf("run = %g, want 20", d["p"]["run"])
	}
	if math.Abs(d["p"]["wait"]-20) > 1e-12 {
		t.Errorf("wait = %g, want 20", d["p"]["wait"])
	}
}

func TestStateDurationsMultiTrack(t *testing.T) {
	rec := NewRecorder()
	rec.Record(0, "a", "busy")
	rec.Record(0, "b", "idle")
	rec.Record(50, "b", "busy")
	d := rec.StateDurations(100)
	if d["a"]["busy"] != 100 {
		t.Errorf("a busy = %g", d["a"]["busy"])
	}
	if d["b"]["idle"] != 50 || d["b"]["busy"] != 50 {
		t.Errorf("b = %v", d["b"])
	}
}

func TestFilter(t *testing.T) {
	rec := NewRecorder()
	rec.Filter = func(track string) bool { return strings.HasPrefix(track, "keep") }
	rec.Record(0, "keep-1", "run")
	rec.Record(0, "drop-1", "run")
	if rec.Len() != 1 {
		t.Errorf("events = %d, want 1", rec.Len())
	}
}

func TestGanttRender(t *testing.T) {
	rec := NewRecorder()
	rec.Record(0, "hwp", "run")
	rec.Record(50, "hwp", "wait")
	rec.Record(0, "lwp0", "idle")
	rec.Record(50, "lwp0", "run")
	var sb strings.Builder
	if err := rec.Gantt(&sb, 0, 100, 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "hwp") || !strings.Contains(out, "lwp0") {
		t.Errorf("missing tracks:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "-") {
		t.Errorf("missing glyphs:\n%s", out)
	}
	if !strings.Contains(out, "legend") {
		t.Error("missing legend")
	}
	// The hwp row should be roughly half # and half -.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "hwp") {
			hashes := strings.Count(line, "#")
			dashes := strings.Count(line, "-")
			if hashes < 15 || dashes < 15 {
				t.Errorf("hwp row unbalanced (%d #, %d -): %q", hashes, dashes, line)
			}
		}
	}
}

func TestGanttBadWindow(t *testing.T) {
	rec := NewRecorder()
	rec.Record(0, "p", "run")
	var sb strings.Builder
	if err := rec.Gantt(&sb, 10, 10, 40); err == nil {
		t.Error("degenerate window accepted")
	}
	if err := rec.Gantt(&sb, 0, 10, 0); err == nil {
		t.Error("zero width accepted")
	}
}

func TestGanttEmpty(t *testing.T) {
	rec := NewRecorder()
	var sb strings.Builder
	if err := rec.Gantt(&sb, 0, 10, 40); err == nil {
		t.Error("empty recorder rendered")
	}
}

func TestUnknownStateGlyph(t *testing.T) {
	rec := NewRecorder()
	rec.Record(0, "p", "weird-state")
	var sb strings.Builder
	if err := rec.Gantt(&sb, 0, 10, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "?") {
		t.Error("unknown state not rendered as ?")
	}
}

// errWriter fails every write with a fixed error.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestGanttWriterErrorPropagates(t *testing.T) {
	rec := NewRecorder()
	rec.Record(0, "p", "run")
	if err := rec.Gantt(errWriter{}, 0, 10, 20); err == nil {
		t.Fatal("writer error swallowed")
	}
}

func TestGanttClipsEventsOutsideWindow(t *testing.T) {
	rec := NewRecorder()
	rec.Record(0, "p", "run") // ends at 100 (next event)
	rec.Record(100, "p", "wait")
	rec.Record(200, "p", "run")
	var sb strings.Builder
	// Window [50, 150): the leading run is clipped at the left edge, the
	// trailing run falls entirely outside and must not appear.
	if err := rec.Gantt(&sb, 50, 150, 20); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "#") || !strings.Contains(out, "-") {
		t.Errorf("window missing clipped states:\n%s", out)
	}
}

func TestGanttTinyWidthAxis(t *testing.T) {
	// Width smaller than the axis labels must truncate, not panic.
	rec := NewRecorder()
	rec.Record(0, "p", "run")
	var sb strings.Builder
	if err := rec.Gantt(&sb, 0, 123456789, 4); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.Contains(line, "|") && len(line) > len("p |")+4+1 {
			t.Errorf("row wider than width budget: %q", line)
		}
	}
}

func TestStateDurationsZeroAndNegativeTail(t *testing.T) {
	rec := NewRecorder()
	rec.Record(10, "p", "run")
	rec.Record(10, "p", "wait") // zero-duration run: dropped
	d := rec.StateDurations(5)  // until before the active state began
	if d["p"]["run"] != 0 {
		t.Errorf("zero-duration state kept: %v", d)
	}
	if d["p"]["wait"] != 0 {
		t.Errorf("negative tail duration kept: %v", d)
	}
}

func TestStateDurationsUnsortedEvents(t *testing.T) {
	// Manually recorded events may arrive out of order; durations must be
	// integrated in time order regardless.
	rec := NewRecorder()
	rec.Record(20, "p", "run")
	rec.Record(0, "p", "idle")
	d := rec.StateDurations(30)
	if math.Abs(d["p"]["idle"]-20) > 1e-12 || math.Abs(d["p"]["run"]-10) > 1e-12 {
		t.Errorf("durations = %v, want idle 20 / run 10", d)
	}
}

func TestTracksSortedAndDistinct(t *testing.T) {
	rec := NewRecorder()
	rec.Record(0, "zeta", "run")
	rec.Record(1, "alpha", "run")
	rec.Record(2, "zeta", "wait")
	got := rec.Tracks()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Errorf("Tracks = %v, want [alpha zeta]", got)
	}
}
