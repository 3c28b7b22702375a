package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dismastd"
)

func TestGenerateTextToFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "book.tsv")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-dataset", "book", "-nnz", "2000", "-seed", "7", "-o", out}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	x, err := dismastd.ReadTensor(f)
	if err != nil {
		t.Fatal(err)
	}
	if x.NNZ() < 1800 || x.Order() != 3 {
		t.Fatalf("generated tensor nnz=%d order=%d", x.NNZ(), x.Order())
	}
	if !strings.Contains(stderr.String(), "Book") {
		t.Fatalf("stderr summary missing: %q", stderr.String())
	}
}

func TestGenerateBinaryByExtension(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "net.bin")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-dataset", "netflix", "-nnz", "1000", "-o", out}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := dismastd.ReadTensor(f); err != nil {
		t.Fatalf("binary read: %v", err)
	}
	// Only .bin means binary; a .gob name gets the default, text.
	gobOut := filepath.Join(dir, "net.gob")
	if err := run([]string{"-dataset", "netflix", "-nnz", "100", "-o", gobOut}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{out: "DMTN", gobOut: "dims"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), want) {
			t.Fatalf("%s does not start with %q", path, want)
		}
	}
}

func TestGenerateToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-dataset", "synthetic", "-nnz", "500"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	x, err := dismastd.ReadTensor(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	if x.NNZ() == 0 {
		t.Fatal("no entries on stdout")
	}
}

func TestBadArguments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for name, args := range map[string][]string{
		"unknown dataset": {"-dataset", "nope"},
		"bad nnz":         {"-nnz", "0"},
		"bad format":      {"-format", "xml"},
		"bad flag":        {"-bogus"},
	} {
		if err := run(args, &stdout, &stderr); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}
