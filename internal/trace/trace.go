// Package trace records per-processor state timelines from simulation runs
// and renders them as ASCII Gantt charts — the counterpart of the paper's
// Fig. 4 "Threads Timeline" and of Workbench's model animation.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Event is one state transition of one track.
type Event struct {
	T     sim.Time
	Track string
	State string
}

// Tracer receives a model's timeline state changes. The models call it on
// the goroutine driving the run.
type Tracer interface {
	// ProcState is called when track name enters the given informal state
	// ("start", "wait", "run", "done") at simulated time t.
	ProcState(t sim.Time, name string, state string)
}

// Recorder collects events; it implements Tracer so a model can report to
// it directly, and models may also record custom tracks manually.
type Recorder struct {
	events []Event
	// Filter, when non-nil, drops events whose track name it rejects.
	Filter func(track string) bool
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// ProcState implements Tracer.
func (r *Recorder) ProcState(t sim.Time, name, state string) {
	r.Record(t, name, state)
}

// Record adds one event.
func (r *Recorder) Record(t sim.Time, track, state string) {
	if r.Filter != nil && !r.Filter(track) {
		return
	}
	r.events = append(r.events, Event{T: t, Track: track, State: state})
}

// Events returns all recorded events in record order.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Tracks returns the distinct track names, sorted.
func (r *Recorder) Tracks() []string {
	seen := map[string]bool{}
	for _, e := range r.events {
		seen[e.Track] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// StateDurations integrates the time each (track, state) pair was active
// between the first event and `until`. States are piecewise constant per
// track.
func (r *Recorder) StateDurations(until sim.Time) map[string]map[string]float64 {
	type cur struct {
		state string
		since sim.Time
	}
	actives := map[string]*cur{}
	out := map[string]map[string]float64{}
	add := func(track, state string, d float64) {
		if d <= 0 {
			return
		}
		if out[track] == nil {
			out[track] = map[string]float64{}
		}
		out[track][state] += d
	}
	// Events must be processed in time order; record order matches
	// simulation order already, but sort defensively (stable keeps ties).
	evs := append([]Event(nil), r.events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	for _, e := range evs {
		if a, ok := actives[e.Track]; ok {
			add(e.Track, a.state, e.T-a.since)
		}
		actives[e.Track] = &cur{state: e.State, since: e.T}
	}
	for track, a := range actives {
		add(track, a.state, until-a.since)
	}
	return out
}

// stateGlyphs maps common states to glyphs; unknown states get '?'.
var stateGlyphs = map[string]byte{
	"start": '.',
	"run":   '#',
	"busy":  '#',
	"wait":  '-',
	"idle":  ' ',
	"mem":   'M',
	"net":   '~',
	"done":  '.',
}

// Gantt renders tracks over [t0, t1] into width columns, one row per
// track, using per-state glyphs (# busy, - wait, M mem, ~ net).
func (r *Recorder) Gantt(w io.Writer, t0, t1 sim.Time, width int) error {
	if t1 <= t0 || width <= 0 {
		return fmt.Errorf("trace: bad Gantt window [%g, %g] x %d", t0, t1, width)
	}
	tracks := r.Tracks()
	if len(tracks) == 0 {
		return fmt.Errorf("trace: no events recorded")
	}
	evs := append([]Event(nil), r.events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	byTrack := map[string][]Event{}
	for _, e := range evs {
		byTrack[e.Track] = append(byTrack[e.Track], e)
	}
	nameW := 0
	for _, tr := range tracks {
		if len(tr) > nameW {
			nameW = len(tr)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s |%s|\n", nameW, "t", axisLabel(t0, t1, width))
	for _, tr := range tracks {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		tevs := byTrack[tr]
		for i, e := range tevs {
			end := t1
			if i+1 < len(tevs) {
				end = tevs[i+1].T
			}
			if end <= t0 || e.T >= t1 {
				continue
			}
			glyph, ok := stateGlyphs[e.State]
			if !ok {
				glyph = '?'
			}
			c0 := clamp(int(float64(width)*(e.T-t0)/(t1-t0)), 0, width-1)
			c1 := clamp(int(float64(width)*(end-t0)/(t1-t0)), c0, width-1)
			for c := c0; c <= c1; c++ {
				row[c] = glyph
			}
		}
		fmt.Fprintf(&b, "%*s |%s|\n", nameW, tr, row)
	}
	b.WriteString("legend: # run/busy  - wait  M mem  ~ net  . start/done\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func axisLabel(t0, t1 sim.Time, width int) string {
	lo := fmt.Sprintf("%g", t0)
	hi := fmt.Sprintf("%g", t1)
	gap := width - len(lo) - len(hi)
	if gap < 1 {
		gap = 1
	}
	s := lo + strings.Repeat(".", gap) + hi
	if len(s) > width {
		s = s[:width]
	}
	return s
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
