package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"sdf/internal/experiments"
)

// inTempDir runs the test body with a fresh temporary directory as the
// working directory, where sdfbench writes its files.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

func TestListPrintsEachNameOnce(t *testing.T) {
	var stdout, stderr bytes.Buffer
	registry := experiments.Registry()
	if code := run([]string{"-list"}, registry, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	seen := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		seen[strings.Fields(line)[0]]++
	}
	if len(seen) != len(registry) {
		t.Errorf("-list printed %d distinct names, registry has %d", len(seen), len(registry))
	}
	for _, e := range registry {
		if seen[e.Name] != 1 {
			t.Errorf("-list printed %q %d times, want once", e.Name, seen[e.Name])
		}
	}
}

func TestBenchJSONIsByteIdentical(t *testing.T) {
	inTempDir(t)
	var docs [2][]byte
	for i := range docs {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-json", "stack"}, experiments.Registry(), &stdout, &stderr); code != 0 {
			t.Fatalf("run %d exited %d: %s", i, code, stderr.String())
		}
		buf, err := os.ReadFile("BENCH_stack.json")
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = buf
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Errorf("BENCH_stack.json differs across runs:\n%s\n---\n%s", docs[0], docs[1])
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(docs[0], &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["perf"]; ok {
		t.Error(`BENCH_stack.json has a host-dependent "perf" block`)
	}
	if _, ok := fields["rows"]; !ok {
		t.Error("BENCH_stack.json has no rows")
	}
}

func TestViolatedContractFailsTheRun(t *testing.T) {
	registry := []experiments.Entry{{
		Name: "fake",
		Run:  func(experiments.Options) experiments.Table { return experiments.Table{ID: "fake"} },
		Check: func(experiments.Table) error {
			return errors.Join(errors.New("widgets 3 > 2"), errors.New("gadgets missing"))
		},
	}}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"fake"}, registry, &stdout, &stderr); code == 0 {
		t.Fatal("run returned 0 with a violated contract")
	}
	for _, want := range []string{"fake: contract violated: widgets 3 > 2", "fake: contract violated: gadgets missing"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr does not name the predicate %q:\n%s", want, stderr.String())
		}
	}
	registry[0].Check = func(experiments.Table) error { return nil }
	stderr.Reset()
	if code := run([]string{"fake"}, registry, &stdout, &stderr); code != 0 {
		t.Errorf("run returned %d with the contract holding: %s", code, stderr.String())
	}
}
