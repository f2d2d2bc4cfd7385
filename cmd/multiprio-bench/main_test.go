package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"multiprio/internal/experiments"
)

// TestStudyListsAreGenerated: the -exp help, the unknown-name error and
// the usage line of the package comment all name every registered
// study, in table order — the three hand-kept lists this replaced had
// each drifted from the table differently.
func TestStudyListsAreGenerated(t *testing.T) {
	studies := experiments.Studies()
	if help := flag.Lookup("exp").Usage; !strings.HasSuffix(help, ": "+studyNames(studies, ", ")) {
		t.Errorf("-exp help does not end in the study list: %q", help)
	}
	err := run(studies, "bogus", &experiments.Ctx{}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), studyNames(studies, ", ")) {
		t.Errorf("-exp bogus: error %v does not name the request and the study list", err)
	}
	src, rerr := os.ReadFile("main.go")
	if rerr != nil {
		t.Fatal(rerr)
	}
	if usage := "//\tmultiprio-bench -exp " + studyNames(studies, "|") + "\n"; !strings.Contains(string(src), usage) {
		t.Errorf("the package comment's usage line is not %q", usage)
	}
}

// TestFlagsUnchanged pins the command's flag set: turning the studies
// into a table added no way to configure a run.
func TestFlagsUnchanged(t *testing.T) {
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	want := []string{"cpuprofile", "exp", "export", "fallback", "gantt", "j", "linger", "memprofile", "quick", "scale", "serve"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v, want %v", got, want)
	}
}

type report string

func (r report) Print(w io.Writer) { io.WriteString(w, string(r)) }

// TestRunAllStopsAtFirstFailure: "all" runs the table in order, prints
// what finished and stops at the first failing study with its error; a
// single name runs that study alone, without the banner.
func TestRunAllStopsAtFirstFailure(t *testing.T) {
	boom := errors.New("second: boom")
	var ran []string
	studies := []experiments.Study{
		{Name: "first", Run: func(*experiments.Ctx) (experiments.Report, error) {
			ran = append(ran, "first")
			return report("one\n"), nil
		}},
		{Name: "second", Run: func(*experiments.Ctx) (experiments.Report, error) {
			ran = append(ran, "second")
			return nil, boom
		}},
		{Name: "third", Run: func(*experiments.Ctx) (experiments.Report, error) {
			ran = append(ran, "third")
			return report("three\n"), nil
		}},
	}
	var out strings.Builder
	if err := run(studies, "all", &experiments.Ctx{}, &out); !errors.Is(err, boom) {
		t.Errorf("all: error %v, want the second study's", err)
	}
	if !reflect.DeepEqual(ran, []string{"first", "second"}) {
		t.Errorf("all ran %v, want first and second only", ran)
	}
	if want := "\n========== first ==========\none\n\n========== second ==========\n"; out.String() != want {
		t.Errorf("all printed %q, want %q", out.String(), want)
	}
	out.Reset()
	if err := run(studies, "third", &experiments.Ctx{}, &out); err != nil || out.String() != "three\n" {
		t.Errorf("third alone: error %v, printed %q", err, out.String())
	}
}
