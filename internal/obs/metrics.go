package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Sample is one point of a counter track.
type Sample struct {
	At    float64 `json:"at"`
	Seq   int64   `json:"seq"`
	Value float64 `json:"value"`
}

// Track is one named counter time series.
type Track struct {
	Name    string   `json:"name"`
	Samples []Sample `json:"samples"`
}

// Metrics is a Probe that records counter samples into per-track time
// series and exports them as CSV, JSON, or Perfetto counter tracks (via
// trace.ChromeOptions.Counters). Decision events are ignored;
// pair with a DecisionLog via Multi.
type Metrics struct {
	mu     sync.Mutex
	tracks map[string]*Track
}

// NewMetrics returns an empty recorder.
func NewMetrics() *Metrics {
	return &Metrics{tracks: make(map[string]*Track)}
}

// Decision implements Probe (ignored).
func (m *Metrics) Decision(d Decision) {}

// Counter implements Probe.
func (m *Metrics) Counter(track string, at float64, seq int64, value float64) {
	m.mu.Lock()
	t := m.tracks[track]
	if t == nil {
		t = &Track{Name: track}
		m.tracks[track] = t
	}
	// Collapse consecutive same-instant samples of one track: only the
	// last value at an instant is observable on a counter plot, and hot
	// paths may update a counter several times within one event.
	if n := len(t.Samples); n > 0 && t.Samples[n-1].At == at && t.Samples[n-1].Seq == seq {
		t.Samples[n-1].Value = value
	} else {
		t.Samples = append(t.Samples, Sample{At: at, Seq: seq, Value: value})
	}
	m.mu.Unlock()
}

// Tracks returns the recorded tracks sorted by name, so exports are
// deterministic regardless of probe arrival order. The tracks share
// storage with the recorder; callers must not mutate them.
func (m *Metrics) Tracks() []*Track {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Track, 0, len(m.tracks))
	for _, t := range m.tracks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Samples returns the samples of the named track (nil when absent).
func (m *Metrics) Samples(track string) []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.tracks[track]; t != nil {
		return t.Samples
	}
	return nil
}

// WriteCSV writes every sample as "track,at,seq,value" rows, tracks in
// name order, samples in recording order — ready for pandas/R, the role
// StarVZ's parsed Paje data plays in the paper's workflow.
func (m *Metrics) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("track,at,seq,value\n"); err != nil {
		return err
	}
	var buf []byte
	for _, t := range m.Tracks() {
		for _, s := range t.Samples {
			buf = buf[:0]
			buf = append(buf, t.Name...)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, s.At, 'g', -1, 64)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, s.Seq, 10)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, s.Value, 'g', -1, 64)
			buf = append(buf, '\n')
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteJSON writes the tracks as one JSON document
// {"tracks":[{"name":...,"samples":[{"at":...,"seq":...,"value":...}]}]}.
func (m *Metrics) WriteJSON(w io.Writer) error {
	doc := struct {
		Tracks []*Track `json:"tracks"`
	}{Tracks: m.Tracks()}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
