package runtime

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the task graph in Graphviz DOT format, one node per
// task colored by kernel kind, for inspecting the DAG shapes the paper
// discusses (diamond-shaped dense factorizations, disconnected FMM,
// bushy multifrontal trees). Given a run's state (Result.Tasks; nil for
// none), it annotates each node with its measured interval.
//
// Intended for small graphs (dot itself struggles past a few thousand
// nodes); use maxTasks to truncate with an ellipsis marker, 0 meaning
// everything.
func (g *Graph) WriteDOT(w io.Writer, st RunState, maxTasks int) error {
	if maxTasks <= 0 || maxTasks > len(g.Tasks) {
		maxTasks = len(g.Tasks)
	}
	var b strings.Builder
	b.WriteString("digraph tasks {\n  rankdir=TB;\n  node [shape=box, style=filled, fontsize=10];\n")
	colors := map[string]string{}
	palette := []string{
		"#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6",
		"#ffff99", "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00",
	}
	colorOf := func(kind string) string {
		c, ok := colors[kind]
		if !ok {
			c = palette[len(colors)%len(palette)]
			colors[kind] = c
		}
		return c
	}
	for _, t := range g.Tasks[:maxTasks] {
		label := fmt.Sprintf("%s #%d", t.Kind(), t.ID)
		if st != nil && st[t.ID].EndAt > st[t.ID].StartAt {
			label += fmt.Sprintf("\\n[%.3f-%.3f]", st[t.ID].StartAt, st[t.ID].EndAt)
		}
		fmt.Fprintf(&b, "  t%d [label=\"%s\", fillcolor=\"%s\"];\n", t.ID, label, colorOf(t.Kind()))
	}
	for _, t := range g.Tasks[:maxTasks] {
		for _, s := range t.Succs() {
			if int(s) < maxTasks {
				fmt.Fprintf(&b, "  t%d -> t%d;\n", t.ID, s)
			}
		}
	}
	if maxTasks < len(g.Tasks) {
		fmt.Fprintf(&b, "  truncated [label=\"… %d more tasks\", shape=plaintext];\n",
			len(g.Tasks)-maxTasks)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
