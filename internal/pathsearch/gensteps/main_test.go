package main

import (
	"bytes"
	"os"
	"testing"
)

// TestTableIsGenerated requires the committed tables to equal the
// generator's output byte for byte, so a hand edit of either table or a
// change to the search that would write a different one fails until
// go generate ./internal/pathsearch is rerun.
func TestTableIsGenerated(t *testing.T) {
	want, err := source()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../tables.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("tables.go differs from the generator's output; run go generate ./internal/pathsearch")
	}
}
