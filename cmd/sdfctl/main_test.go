package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdf/internal/experiments"
)

// sdfctl runs the command and returns its exit code and output.
func sdfctl(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestFaultsPrintsBuiltInPlan(t *testing.T) {
	code, stdout, stderr := sdfctl("faults")
	if code != 0 {
		t.Fatalf("faults exited %d: %s", code, stderr)
	}
	if want := experiments.DefaultAvailabilityPlan().String(); !strings.HasSuffix(stdout, want) {
		t.Errorf("faults printed:\n%s\nwant the built-in availability plan:\n%s", stdout, want)
	}
}

func TestFaultsRejectsInvalidPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	plan := `{"seed": 1, "injections": [{"at": 1000000, "kind": "channel-kill", "target": ""}]}`
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := sdfctl("faults", path)
	if code == 0 {
		t.Fatalf("faults accepted an invalid plan:\n%s", stdout)
	}
	if !strings.Contains(stderr, "injection 0: empty target") {
		t.Errorf("stderr %q does not name the validation error", stderr)
	}
}

func TestUnknownCommandExits2(t *testing.T) {
	code, _, stderr := sdfctl("frobnicate")
	if code != 2 {
		t.Fatalf("unknown command exited %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown command "frobnicate"`) {
		t.Errorf("stderr %q does not name the command", stderr)
	}
}

func TestInfoReports44Channels(t *testing.T) {
	code, stdout, stderr := sdfctl("info")
	if code != 0 {
		t.Fatalf("info exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "channels:            44 ") {
		t.Errorf("info output does not report 44 channels:\n%s", stdout)
	}
}
