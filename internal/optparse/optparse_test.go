package optparse

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/dramstudy/rhvpp/internal/experiments"
)

func TestSetAppliesOnlyWhatWasSet(t *testing.T) {
	var ov Overrides
	for _, kv := range [][2]string{
		{"modules", "B3,C0"}, {"rows", "8"}, {"seed", "77"},
		{"mc", "50"},
	} {
		if err := ov.Set(kv[0], kv[1]); err != nil {
			t.Fatalf("Set(%s, %s): %v", kv[0], kv[1], err)
		}
	}
	base := experiments.Default()
	o := base
	ov.Apply(&o)
	if !reflect.DeepEqual(o.ModuleNames, []string{"B3", "C0"}) {
		t.Errorf("ModuleNames = %v", o.ModuleNames)
	}
	if o.RowsPerChunk != 8 || o.Seed != 77 || o.SpiceMCRuns != 50 {
		t.Errorf("set knobs not applied: %+v", o)
	}
	// Everything unset keeps the preset's value.
	if o.Chunks != base.Chunks || o.VPPStride != base.VPPStride || o.Jobs != base.Jobs {
		t.Errorf("unset knobs drifted from preset: %+v", o)
	}
}

func TestJobsTracksPresenceNotValue(t *testing.T) {
	// jobs=0 is a meaningful override (one worker per CPU) even though 0 is
	// the int zero value, and jobs=-1 must flow through to Validate rather
	// than be rejected (or dropped) at parse time.
	for _, tc := range []struct {
		value string
		want  int
	}{{"0", 0}, {"3", 3}, {"-1", -1}} {
		var ov Overrides
		if err := ov.Set("jobs", tc.value); err != nil {
			t.Fatalf("Set(jobs, %s): %v", tc.value, err)
		}
		if !ov.JobsSet || ov.Jobs != tc.want {
			t.Errorf("jobs=%s: JobsSet=%v Jobs=%d", tc.value, ov.JobsSet, ov.Jobs)
		}
		o := experiments.Default()
		o.Jobs = 99 // sentinel: Apply must overwrite it
		ov.Apply(&o)
		if o.Jobs != tc.want {
			t.Errorf("jobs=%s: applied Jobs=%d, want %d", tc.value, o.Jobs, tc.want)
		}
	}
	var ov Overrides
	o := experiments.Default()
	o.Jobs = 99
	ov.Apply(&o)
	if o.Jobs != 99 {
		t.Error("unset jobs knob overwrote the options")
	}
}

func TestSetRejectsUnknownAndUnparseable(t *testing.T) {
	var ov Overrides
	err := ov.Set("bogus", "1")
	if err == nil {
		t.Fatal("unknown knob accepted")
	}
	for _, name := range Known() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-knob error should list %q: %v", name, err)
		}
	}
	// The retired SPICE stepping knobs are unknown like any other name.
	for _, kv := range [][2]string{{"ltetol", "0.001"}, {"fixed-grid", "true"}} {
		want := strings.Replace(err.Error(), `"bogus"`, `"`+kv[0]+`"`, 1)
		if got := ov.Set(kv[0], kv[1]); got == nil || got.Error() != want {
			t.Errorf("Set(%s, %s) = %v, want %q", kv[0], kv[1], got, want)
		}
	}
	for _, kv := range [][2]string{
		{"rows", "eight"}, {"seed", "-1"}, {"seed", "xyz"},
		{"jobs", "many"},
	} {
		if err := ov.Set(kv[0], kv[1]); err == nil {
			t.Errorf("Set(%s, %s) accepted", kv[0], kv[1])
		} else if !strings.Contains(err.Error(), kv[0]) || !strings.Contains(err.Error(), kv[1]) {
			t.Errorf("Set(%s, %s) error should name knob and value: %v", kv[0], kv[1], err)
		}
	}
}

func TestFlagsMatchSetSemantics(t *testing.T) {
	// The CLI binds flags through Flags; a flag invocation and a Set call
	// must produce the same Overrides, or the two surfaces drift.
	var fromFlags Overrides
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fromFlags.Flags(fs)
	if err := fs.Parse([]string{
		"-modules", "B3", "-rows", "4", "-chunks", "1", "-seed", "9",
		"-stride", "2", "-mc", "10", "-jobs", "2",
	}); err != nil {
		t.Fatal(err)
	}
	var fromSet Overrides
	for _, kv := range [][2]string{
		{"modules", "B3"}, {"rows", "4"}, {"chunks", "1"}, {"seed", "9"},
		{"stride", "2"}, {"mc", "10"}, {"jobs", "2"},
	} {
		if err := fromSet.Set(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(fromFlags, fromSet) {
		t.Errorf("flag parse and Set disagree:\nflags: %+v\n  set: %+v", fromFlags, fromSet)
	}
	// Every Set-addressable knob is registered as a flag under the same name.
	for _, name := range Known() {
		if fs.Lookup(name) == nil {
			t.Errorf("knob %q has no flag", name)
		}
	}
}
