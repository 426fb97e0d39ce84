package main

import (
	"encoding/json"
	"go/token"
	"reflect"
	"testing"

	"emuchick/internal/analysis"
)

// TestJSONSchema locks the -json record schema. CI annotation scripts and
// editor integrations parse these exact keys; a failure here means a
// breaking change to the machine-readable output. Add fields if needed —
// never rename or remove one.
func TestJSONSchema(t *testing.T) {
	rec := jsonDiagnostic{
		File:       "internal/sim/engine.go",
		Line:       42,
		Col:        7,
		Analyzer:   "hotpathalloc",
		Message:    "hot path: make allocates",
		Suppressed: true,
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"file":"internal/sim/engine.go","line":42,"col":7,` +
		`"analyzer":"hotpathalloc","message":"hot path: make allocates","suppressed":true}`
	if string(blob) != want {
		t.Errorf("serialized record changed:\n got %s\nwant %s", blob, want)
	}

	// The key set must stay exactly these six, independent of field order.
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	wantKeys := map[string]bool{
		"file": true, "line": true, "col": true,
		"analyzer": true, "message": true, "suppressed": true,
	}
	for k := range m {
		if !wantKeys[k] {
			t.Errorf("unexpected key %q in JSON record", k)
		}
		delete(wantKeys, k)
	}
	for k := range wantKeys {
		t.Errorf("missing key %q in JSON record", k)
	}
}

// TestToJSON checks the Diagnostic → record mapping field by field,
// suppressed diagnostics included (that is the point of -json: the full
// picture, with suppression marked rather than filtered).
func TestToJSON(t *testing.T) {
	diags := []analysis.Diagnostic{
		{
			Pos:      token.Position{Filename: "a.go", Line: 3, Column: 9},
			Analyzer: "hotpathalloc",
			Message:  "hot path: make allocates",
		},
		{
			Pos:        token.Position{Filename: "b.go", Line: 8, Column: 1},
			Analyzer:   "seedflow",
			Message:    "seed derives from package-level variable counter",
			Suppressed: true,
		},
	}
	got := toJSON(diags)
	want := []jsonDiagnostic{
		{File: "a.go", Line: 3, Col: 9, Analyzer: "hotpathalloc",
			Message: "hot path: make allocates"},
		{File: "b.go", Line: 8, Col: 1, Analyzer: "seedflow",
			Message: "seed derives from package-level variable counter", Suppressed: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("toJSON mismatch:\n got %+v\nwant %+v", got, want)
	}
}
