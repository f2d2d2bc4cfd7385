package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one interval recorded by the benchmark around a call into a
// layer. Spans of one job share its rep; Parent is the ID of the span
// that caused this one, -1 for a job.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNs  int64  `json:"start_ns"` // since the recorder was made
	EndNs    int64  `json:"end_ns"`
}

// folded is a scheduler operation of one job, as (total ns, count):
// millions of Push/Pop/TaskDone calls are not worth a span each.
type folded struct {
	Rep     int     `json:"rep"`
	Op      string  `json:"op"`
	TotalNs float64 `json:"total_ns"`
	Calls   int64   `json:"calls"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	workload string
	t0       time.Time
	Spans    []span   `json:"spans"`
	Folded   []folded `json:"folded"`
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

func (r *recorder) add(name string, rep, parent int, start, end time.Time) int {
	id := len(r.Spans)
	r.Spans = append(r.Spans, span{
		ID: id, Parent: parent, Name: name, Workload: r.workload, Rep: rep,
		StartNs: start.Sub(r.t0).Nanoseconds(), EndNs: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

func (r *recorder) fold(rep int, st schedTimes) {
	r.Folded = append(r.Folded,
		folded{rep, "sched.init", st.initS * 1e9, 1},
		folded{rep, "sched.push", st.pushS * 1e9, st.pushCalls},
		folded{rep, "sched.pop", st.popS * 1e9, st.popCalls},
		folded{rep, "sched.taskdone", st.taskDoneS * 1e9, st.doneCalls},
	)
}

// selfSeconds returns, per span name, the summed self time: a span's
// duration minus the part its child spans cover.
func (r *recorder) selfSeconds() map[string]float64 {
	covered := make([]int64, len(r.Spans))
	for _, s := range r.Spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := map[string]float64{}
	for _, s := range r.Spans {
		self[s.Name] += float64(s.EndNs-s.StartNs-covered[s.ID]) / 1e9
	}
	return self
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
