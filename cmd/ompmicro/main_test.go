package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunMicroSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-maxt", "2", "-reps", "20"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{
		"host wall-clock overheads",
		"modelled per-event overheads",
		"Section 9.3 estimate",
		"atomic update: CAS-spinlock add",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

func TestRunMicroBadFlagExitTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}
