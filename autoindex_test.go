package kreach_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kreach"
)

func TestLoadAutoIndex(t *testing.T) {
	g := chain(8)
	plain, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	hk, err := kreach.BuildHKIndex(g, kreach.HKOptions{H: 1, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var pbuf, hbuf bytes.Buffer
	if err := plain.Save(&pbuf); err != nil {
		t.Fatal(err)
	}
	if err := hk.Save(&hbuf); err != nil {
		t.Fatal(err)
	}
	ix, hkLoaded, err := kreach.LoadAutoIndex(&pbuf, g)
	if err != nil || ix == nil || hkLoaded != nil {
		t.Fatalf("plain auto-load: ix=%v hk=%v err=%v", ix, hkLoaded, err)
	}
	if !ix.Reach(0, 3) || ix.Reach(0, 4) {
		t.Error("auto-loaded plain index answers wrong")
	}
	ix, hkLoaded, err = kreach.LoadAutoIndex(&hbuf, g)
	if err != nil || ix != nil || hkLoaded == nil {
		t.Fatalf("hk auto-load: ix=%v hk=%v err=%v", ix, hkLoaded, err)
	}
	if !hkLoaded.Reach(0, 3) || hkLoaded.Reach(0, 4) {
		t.Error("auto-loaded (h,k) index answers wrong")
	}
	// Garbage is rejected from the magic alone, naming it.
	_, _, err = kreach.LoadAutoIndex(strings.NewReader("garbage"), g)
	if err == nil || !strings.Contains(err.Error(), "neither") {
		t.Errorf("garbage auto-load error = %v", err)
	}
}

// TestLoadAutoIndexFromFile: loading from an *os.File goes through the
// magic peek's buffer, which passes the file's Stat on to the loader so it
// sizes its read by the file; both variants must still load from it.
func TestLoadAutoIndexFromFile(t *testing.T) {
	g := chain(8)
	plain, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	hk, err := kreach.BuildHKIndex(g, kreach.HKOptions{H: 1, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, save := range map[string]func(io.Writer) error{"plain": plain.Save, "hk": hk.Save} {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		ix, hkLoaded, err := kreach.LoadAutoIndex(f, g)
		f.Close()
		if err != nil || (ix == nil) == (hkLoaded == nil) || (name == "plain") != (ix != nil) {
			t.Fatalf("%s from a file: ix=%v hk=%v err=%v", name, ix, hkLoaded, err)
		}
	}
}

// TestLoadAutoIndexTruncated covers the short-read path: a stream with
// fewer than the 4 magic bytes must name the truncation instead of leaking
// a raw bufio Peek error.
func TestLoadAutoIndexTruncated(t *testing.T) {
	g := chain(8)
	for _, stream := range []string{"", "K", "KR", "KRI"} {
		_, _, err := kreach.LoadAutoIndex(strings.NewReader(stream), g)
		if err == nil {
			t.Fatalf("%d-byte stream accepted", len(stream))
		}
		if !strings.Contains(err.Error(), "truncated index file") {
			t.Errorf("%d-byte stream error = %q, want a truncated-index-file message", len(stream), err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d-byte stream error %v does not unwrap to io.ErrUnexpectedEOF", len(stream), err)
		}
	}
	// Four bytes of wrong magic is a magic mismatch, not a truncation.
	_, _, err := kreach.LoadAutoIndex(strings.NewReader("XXXX"), g)
	if err == nil || strings.Contains(err.Error(), "truncated") {
		t.Errorf("4-byte garbage error = %v, want a magic mismatch", err)
	}
}

// TestLoadAutoReacher: the interface-returning loader hands back whichever
// variant the file holds, answering through one code path.
func TestLoadAutoReacher(t *testing.T) {
	g := chain(8)
	plain, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	hk, err := kreach.BuildHKIndex(g, kreach.HKOptions{H: 1, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		save func(w io.Writer) error
		kind kreach.IndexKind
	}{
		{"plain", plain.Save, kreach.KindPlain},
		{"hk", hk.Save, kreach.KindHK},
	} {
		var buf bytes.Buffer
		if err := tc.save(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := kreach.LoadAutoReacher(&buf, g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := r.Stats().Kind; got != tc.kind {
			t.Fatalf("%s: kind = %q, want %q", tc.name, got, tc.kind)
		}
		v, _, err := r.ReachK(context.Background(), 0, 3, kreach.UseIndexK)
		if err != nil || v != kreach.Yes {
			t.Fatalf("%s: 0→3 = %v (%v), want yes", tc.name, v, err)
		}
		if v, _, err = r.ReachK(context.Background(), 0, 4, kreach.UseIndexK); err != nil || v != kreach.No {
			t.Fatalf("%s: 0→4 = %v (%v), want no", tc.name, v, err)
		}
	}
	if _, err := kreach.LoadAutoReacher(strings.NewReader("xx"), g); err == nil {
		t.Error("truncated stream accepted")
	}
}
