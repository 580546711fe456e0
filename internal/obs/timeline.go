// Timeline is the time-resolved half of the observability layer: where
// obs.Hist answers "how were samples distributed", a Timeline answers
// "when did the activity happen" by accumulating per-component event
// counts into fixed-size buckets over simulated time.
//
// Memory stays bounded on arbitrarily long runs by downsampling instead
// of growing: every track is a fixed array of TimelineBuckets counters,
// and when a sample lands past the covered range the whole timeline
// folds — bucket width doubles, adjacent buckets merge — until the
// sample fits. Recording is allocation-free for the same reason the
// tracer hooks are: all state is preallocated at attach time.
package obs

import (
	"encoding/json"
	"io"
)

// TimelineBuckets is the fixed per-track bucket count. 256 buckets at
// the default width cover ~268 µs of simulated time before the first
// fold, comfortably past the paper's measurement windows.
const TimelineBuckets = 256

// DefaultTimelineWidthPs is every timeline's initial bucket width
// (~1 µs of simulated time).
const DefaultTimelineWidthPs = 1 << 20

// Timeline owns the shared bucket geometry of a set of tracks. All of
// its state is touched only by the owning system's single engine
// goroutine; export happens after the run completes.
type Timeline struct {
	widthPs int64
	tracks  []*TimelineTrack
}

// NewTimeline returns an empty timeline whose buckets start
// DefaultTimelineWidthPs wide.
func NewTimeline() *Timeline {
	return &Timeline{widthPs: DefaultTimelineWidthPs}
}

// Track returns (creating on demand) the named activity series. Safe on
// a nil timeline, where it returns a nil track whose Add is a no-op —
// the same zero-cost-when-off contract the tracer hooks follow.
func (tl *Timeline) Track(name string) *TimelineTrack {
	if tl == nil {
		return nil
	}
	for _, tr := range tl.tracks {
		if tr.Name == name {
			return tr
		}
	}
	tr := &TimelineTrack{tl: tl, Name: name}
	tl.tracks = append(tl.tracks, tr)
	return tr
}

// fold halves the resolution: bucket width doubles and adjacent buckets
// merge, freeing the upper half of every track for later samples.
func (tl *Timeline) fold() {
	tl.widthPs *= 2
	for _, tr := range tl.tracks {
		for i := 0; i < TimelineBuckets/2; i++ {
			tr.counts[i] = tr.counts[2*i] + tr.counts[2*i+1]
		}
		for i := TimelineBuckets / 2; i < TimelineBuckets; i++ {
			tr.counts[i] = 0
		}
	}
}

// TimelineTrack is one named activity series: event counts bucketed
// over simulated time, sharing its timeline's bucket geometry.
type TimelineTrack struct {
	tl     *Timeline
	Name   string
	counts [TimelineBuckets]uint64
}

// Add records n events at simulated time tPs, folding the timeline as
// needed so the sample always lands inside the covered range. No-op on
// a nil track and allocation-free otherwise: folds rewrite the fixed
// arrays in place.
func (tr *TimelineTrack) Add(tPs int64, n uint64) {
	if tr == nil {
		return
	}
	if tPs < 0 {
		tPs = 0
	}
	tl := tr.tl
	for tPs >= tl.widthPs*TimelineBuckets {
		tl.fold()
	}
	tr.counts[tPs/tl.widthPs] += n
}

// Total returns the track's summed event count across all buckets.
func (tr *TimelineTrack) Total() uint64 {
	if tr == nil {
		return 0
	}
	var sum uint64
	for _, c := range tr.counts {
		sum += c
	}
	return sum
}

// traceEvent is one Chrome trace_event record. Counter samples use
// ph "C"; process metadata uses ph "M".
type traceEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Pid  int         `json:"pid"`
	Ts   float64     `json:"ts"`
	Args interface{} `json:"args,omitempty"`
}

// chromeTrace is the top-level Chrome trace_event JSON object.
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace renders every registered system's timeline as
// Chrome trace_event JSON (counter events over simulated time, one
// process per system), loadable in Perfetto or chrome://tracing. With
// no system at all the output is still a valid empty trace.
// Timestamps map simulated picoseconds onto the format's microsecond
// axis.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	c.mu.Lock()
	systems := append([]*SystemTracer(nil), c.systems...)
	c.mu.Unlock()

	out := chromeTrace{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	for k, sys := range systems {
		pid, tl := k+1, sys.timeline
		named := false
		for _, tr := range tl.tracks {
			if tr.Total() == 0 {
				continue
			}
			if !named {
				out.TraceEvents = append(out.TraceEvents, traceEvent{
					Name: "process_name", Ph: "M", Pid: pid,
					Args: map[string]string{"name": "system"},
				})
				named = true
			}
			// Emit occupied buckets plus the zero bucket that follows a
			// run of activity, so counters visibly drop instead of
			// holding their last value across idle stretches.
			for i := 0; i < TimelineBuckets; i++ {
				if tr.counts[i] == 0 && (i == 0 || tr.counts[i-1] == 0) {
					continue
				}
				out.TraceEvents = append(out.TraceEvents, traceEvent{
					Name: tr.Name, Ph: "C", Pid: pid,
					Ts:   float64(int64(i)*tl.widthPs) / 1e6,
					Args: map[string]uint64{"c": tr.counts[i]},
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
