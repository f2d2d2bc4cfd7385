package telemetry

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline.
var escapeLabelValue = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeHelp escapes a HELP string: backslash and newline only.
var escapeHelp = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// formatFloat renders a sample value the way Prometheus clients do:
// shortest round-trip representation, `+Inf`/`-Inf` spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4): a # HELP and # TYPE header per
// family, one sample line per metric, and the `_bucket`/`_sum`/`_count`
// triplet with cumulative `le` buckets for histograms. Output is fully
// deterministic for a deterministic snapshot — families and label
// values are sorted, and no timestamps are emitted — so sim-engine runs
// are golden-testable.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range s.Families {
		if len(f.Metrics) == 0 {
			continue
		}
		bw.WriteString("# HELP ")
		bw.WriteString(f.Name)
		bw.WriteByte(' ')
		escapeHelp.WriteString(bw, f.Help)
		bw.WriteString("\n# TYPE ")
		bw.WriteString(f.Name)
		bw.WriteByte(' ')
		bw.WriteString(f.Kind)
		bw.WriteByte('\n')
		for _, m := range f.Metrics {
			if f.Kind == KindHistogram.String() {
				writePromHistogram(bw, f, m)
				continue
			}
			bw.WriteString(f.Name)
			writeLabels(bw, f.Label, m.LabelValue, "")
			bw.WriteByte(' ')
			bw.WriteString(formatFloat(m.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// writeLabels renders `{key="value"}` (plus an optional `le` pair),
// or nothing when no label applies.
func writeLabels(bw *bufio.Writer, key, value, le string) {
	if key == "" && le == "" {
		return
	}
	bw.WriteByte('{')
	if key != "" {
		bw.WriteString(key)
		bw.WriteString(`="`)
		escapeLabelValue.WriteString(bw, value)
		bw.WriteByte('"')
		if le != "" {
			bw.WriteByte(',')
		}
	}
	if le != "" {
		bw.WriteString(`le="`)
		bw.WriteString(le)
		bw.WriteByte('"')
	}
	bw.WriteByte('}')
}

// writePromHistogram renders one histogram instance's
// `_bucket`/`_sum`/`_count` triplet.
func writePromHistogram(bw *bufio.Writer, f FamilySnapshot, m MetricSnapshot) {
	for i, cum := range m.Buckets {
		le := "+Inf"
		if i < NumBuckets {
			le = formatFloat(histBounds[i])
		}
		bw.WriteString(f.Name)
		bw.WriteString("_bucket")
		writeLabels(bw, f.Label, m.LabelValue, le)
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(cum, 10))
		bw.WriteByte('\n')
	}
	bw.WriteString(f.Name)
	bw.WriteString("_sum")
	writeLabels(bw, f.Label, m.LabelValue, "")
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(m.Sum))
	bw.WriteByte('\n')
	bw.WriteString(f.Name)
	bw.WriteString("_count")
	writeLabels(bw, f.Label, m.LabelValue, "")
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(m.Count, 10))
	bw.WriteByte('\n')
}
