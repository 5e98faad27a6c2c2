package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFigure1(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fig1.svg")
	if err := run([]string{"-figure", "1", "-out", out, "-quiet"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Error("output is not SVG")
	}
}

func TestRunFigure3NoFile(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-figure", "3", "-quiet"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "grid 1024 nodes") {
		t.Errorf("caption missing from the output %q", buf.String())
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-figure", "9"}, io.Discard); err == nil {
		t.Error("unknown figure accepted")
	}
}

// TestRunBadFlag: a bad flag value or a stray argument is refused before
// any figure is built, with the usage line and nothing on stdout.
func TestRunBadFlag(t *testing.T) {
	for _, tt := range []struct {
		name string
		args []string
		want string
	}{
		{"bad flag value", []string{"-figure", "x"}, "invalid value"},
		{"unknown flag", []string{"-nope"}, "not defined"},
		{"stray argument", []string{"-figure", "1", "-quiet", "stray"}, `unexpected argument "stray"`},
	} {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tt.args, &buf)
			if err == nil || !strings.Contains(err.Error(), tt.want) || !strings.Contains(err.Error(), usage) {
				t.Errorf("run(%v) = %v, want an error mentioning %q and the usage line", tt.args, err, tt.want)
			}
			if buf.Len() != 0 {
				t.Errorf("run(%v) wrote %q to stdout", tt.args, buf.String())
			}
		})
	}
}

// TestRunHelp: -h prints the usage line and every flag with its default
// to stdout and succeeds.
func TestRunHelp(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); err != nil {
		t.Fatalf("-h: %v", err)
	}
	for _, want := range []string{usage, "-figure", "-out", "-seed", "-r", "-quiet"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("-h output lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestRunUnwritableOutput(t *testing.T) {
	if err := run([]string{"-figure", "1", "-out", "/nonexistent-dir/f.svg", "-quiet"}, io.Discard); err == nil {
		t.Error("unwritable path accepted")
	}
}
