package trace

import (
	"encoding/json"
	"fmt"
)

// chromeEvent is one record of the Chrome trace_event format (the JSON
// consumed by chrome://tracing and ui.perfetto.dev). Field order is fixed
// by the struct, argument maps marshal with sorted keys, so the output is
// byte-deterministic for a given timeline.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// ChromeTrace renders the timeline as Chrome trace_event JSON: one thread
// per worker, complete ("X") events for spans, instant ("i") events for
// fault markers. Simulation time units map to seconds (ts is in
// microseconds, per the format). The output is deterministic: identical
// timelines serialize to identical bytes.
func (tl *Timeline) ChromeTrace() ([]byte, error) {
	const unit = 1e6 // sim time unit → μs
	f := chromeFile{DisplayTimeUnit: "ms"}
	f.TraceEvents = append(f.TraceEvents, chromeEvent{
		Name: "process_name", Cat: "__metadata", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "simulation"},
	})
	for w := range tl.Spans {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: 0, Tid: w,
			Args: map[string]any{"name": fmt.Sprintf("P%d", w+1)},
		})
	}
	for w, spans := range tl.Spans {
		for _, s := range spans {
			dur := (s.End - s.Start) * unit
			ev := chromeEvent{
				Name: fmt.Sprintf("%s task %d", s.Kind, s.Task),
				Cat:  fmt.Sprintf("%s,%s", s.Kind, s.Outcome),
				Ph:   "X",
				Ts:   s.Start * unit,
				Dur:  &dur,
				Pid:  0,
				Tid:  w,
				Args: map[string]any{
					"data": s.Data,
					"task": s.Task,
					"work": s.Work,
				},
			}
			f.TraceEvents = append(f.TraceEvents, ev)
		}
	}
	for _, m := range tl.Marks {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: fmt.Sprintf("%s %s", m.Kind, m.Note),
			Cat:  "fault",
			Ph:   "i",
			Ts:   m.Time * unit,
			Pid:  0,
			Tid:  m.Worker,
			S:    "t",
		})
	}
	return json.MarshalIndent(f, "", " ")
}
