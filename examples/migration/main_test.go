package main

import (
	"bytes"
	"os"
	"testing"
)

// TestStdoutGolden runs the example and compares everything it prints with
// testdata/stdout.golden. The simulation is deterministic, so any
// difference is a change to the model or to the facade the example is
// written against. After an intended change, regenerate the file with
//
//	go run ./examples/migration > examples/migration/testdata/stdout.golden
func TestStdoutGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	out.Close()
	if !bytes.Equal(got, want) {
		t.Fatalf("stdout drifted from testdata/stdout.golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
