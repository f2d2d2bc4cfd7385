package telemetry

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// promSample is one parsed exposition sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm is a strict parser for the subset of the text exposition
// format this package emits. It fails the test on any line it cannot
// parse, so the round-trip tests double as output validation.
func parseProm(t *testing.T, text string) (types map[string]string, samples []promSample) {
	t.Helper()
	types = make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}
		s := promSample{labels: make(map[string]string)}
		rest := line
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			s.name = rest[:i]
			end := strings.LastIndexByte(rest, '}')
			if end < i {
				t.Fatalf("unterminated label set: %q", line)
			}
			parseLabels(t, rest[i+1:end], s.labels)
			rest = strings.TrimSpace(rest[end+1:])
		} else {
			j := strings.IndexByte(rest, ' ')
			if j < 0 {
				t.Fatalf("no value on line: %q", line)
			}
			s.name, rest = rest[:j], strings.TrimSpace(rest[j+1:])
		}
		v, err := parsePromValue(rest)
		if err != nil {
			t.Fatalf("bad value on line %q: %v", line, err)
		}
		s.value = v
		samples = append(samples, s)
	}
	return types, samples
}

// parseLabels decodes `k="v",k2="v2"` with exposition-format escapes.
func parseLabels(t *testing.T, s string, into map[string]string) {
	t.Helper()
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			t.Fatalf("bad label segment %q", s)
		}
		key := s[:eq]
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					t.Fatalf("bad escape in %q", rest)
				}
				i++
				continue
			}
			if rest[i] == '"' {
				break
			}
			val.WriteByte(rest[i])
		}
		if i >= len(rest) {
			t.Fatalf("unterminated label value in %q", s)
		}
		into[key] = val.String()
		s = rest[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return strconv.ParseFloat("+inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-inf", 64)
	}
	return strconv.ParseFloat(s, 64)
}

// TestPrometheusExposition builds a registry by hand — including a
// label value that needs every escape — renders it, and re-parses it,
// checking the format invariants the satellite demands: TYPE headers,
// escaping round-trip, `_bucket`/`_sum`/`_count` triplets, monotone
// cumulative buckets, and `+Inf == count`.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	nasty := "a\"b\\c\nd"
	r.NewGauge("g_val", "gauge with \\ and\nnewline in help", "track").With(nasty).Set(2.5)
	c := r.NewCounter("c_total", "counter", "tenant")
	c.With("t0").Add(4)
	c.With("t1").Add(1)
	h := r.NewHistogram("h_seconds", "histogram", "tenant")
	for i := 0; i < 100; i++ {
		h.With("t0").Observe(float64(i) * 0.01)
	}
	h.With("t1").Observe(3)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	types, samples := parseProm(t, buf.String())

	if types["g_val"] != "gauge" || types["c_total"] != "counter" || types["h_seconds"] != "histogram" {
		t.Fatalf("TYPE lines wrong: %v", types)
	}

	bySeries := make(map[string][]promSample)
	for _, s := range samples {
		bySeries[s.name] = append(bySeries[s.name], s)
	}

	// Escaping round-trip: the nasty label value must come back intact.
	gs := bySeries["g_val"]
	if len(gs) != 1 || gs[0].labels["track"] != nasty || gs[0].value != 2.5 {
		t.Fatalf("gauge round-trip failed: %+v", gs)
	}

	// Histogram triplet invariants per label value.
	for _, tenant := range []string{"t0", "t1"} {
		var buckets []promSample
		var sum, count *promSample
		for i := range bySeries["h_seconds_bucket"] {
			if s := bySeries["h_seconds_bucket"][i]; s.labels["tenant"] == tenant {
				buckets = append(buckets, s)
			}
		}
		for i := range bySeries["h_seconds_sum"] {
			if s := bySeries["h_seconds_sum"][i]; s.labels["tenant"] == tenant {
				sum = &bySeries["h_seconds_sum"][i]
			}
		}
		for i := range bySeries["h_seconds_count"] {
			if s := bySeries["h_seconds_count"][i]; s.labels["tenant"] == tenant {
				count = &bySeries["h_seconds_count"][i]
			}
		}
		if sum == nil || count == nil {
			t.Fatalf("%s: missing _sum or _count", tenant)
		}
		if len(buckets) != NumBuckets+1 {
			t.Fatalf("%s: %d buckets, want %d", tenant, len(buckets), NumBuckets+1)
		}
		prevLe, prevCum := -1.0, -1.0
		for i, b := range buckets {
			le, err := parsePromValue(b.labels["le"])
			if err != nil {
				t.Fatalf("%s: bad le %q", tenant, b.labels["le"])
			}
			if le <= prevLe {
				t.Fatalf("%s: le not ascending at %d", tenant, i)
			}
			if b.value < prevCum {
				t.Fatalf("%s: cumulative bucket decreases at le=%g", tenant, le)
			}
			prevLe, prevCum = le, b.value
		}
		if last := buckets[len(buckets)-1]; last.labels["le"] != "+Inf" || last.value != count.value {
			t.Fatalf("%s: +Inf bucket %g != count %g", tenant, last.value, count.value)
		}
	}

	// The le bounds must round-trip through the parser to the exact
	// package bounds (powers of two are lossless in 'g' formatting).
	wantLe := histBounds
	for i, b := range bySeries["h_seconds_bucket"][:NumBuckets] {
		le, _ := parsePromValue(b.labels["le"])
		if le != wantLe[i] {
			t.Fatalf("le[%d] = %g, want %g", i, le, wantLe[i])
		}
	}

	// Unlabeled, never-touched families export a zero sample rather
	// than disappearing.
	r2 := NewRegistry()
	r2.NewCounter("zero_total", "", "")
	var buf2 bytes.Buffer
	if err := r2.Snapshot().WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "zero_total 0\n") {
		t.Fatalf("zero-valued unlabeled counter missing:\n%s", buf2.String())
	}

	// Determinism: rendering the same snapshot twice is byte-identical.
	var buf3 bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf3.Bytes()) {
		t.Error("exposition output is nondeterministic")
	}
}
