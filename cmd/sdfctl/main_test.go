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

// TestDeviceCommandsReportTheirRows runs the three commands that
// simulate a device. exercise erases, writes and reads one 8 MiB block
// on each of two small channels in parallel on identical flash, so
// each op's min, mean and max agree. wear hammers a fixed small
// channel until it refuses a write: dynamic wear leveling keeps the
// erase counts within a few cycles of each other, and worn blocks are
// retired. stack prints the per-request software costs of §2.4 and
// §4.3 and their ratio.
func TestDeviceCommandsReportTheirRows(t *testing.T) {
	for _, tc := range []struct {
		args []string
		rows []string
	}{
		{[]string{"-channels", "2", "-blocks", "4", "exercise"}, []string{
			"all 2 channels: erase+write+read one 8 MiB block each",
			"erase: mean 6.003ms (min 6.003ms, max 6.003ms)",
			"write: mean 359.2622ms (min 359.2622ms, max 359.2622ms)",
			"read: mean 220.0332ms (min 220.0332ms, max 220.0332ms)",
			"moved 32 MiB in 585ms of device time",
		}},
		{[]string{"wear"}, []string{
			"channel wore out after 1028 erase+write cycles",
			"erase counts: 85..87 (dynamic wear leveling)",
			"bad blocks retired: 5",
		}},
		{[]string{"stack"}, []string{
			"kernel I/O stack: 12.9µs per request",
			"user-space bypass: 3µs per request (interrupts merged 4-way)",
			"ratio: 4.3x",
		}},
	} {
		code, stdout, stderr := sdfctl(tc.args...)
		if code != 0 {
			t.Fatalf("%v exited %d: %s", tc.args, code, stderr)
		}
		wantRows(t, stdout, tc.rows...)
	}
}
