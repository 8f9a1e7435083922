package supervise

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"light/internal/engine"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/pattern"
	"light/internal/plan"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Fingerprint: 0xdeadbeefcafe,
		Cursor:      17,
		Base: engine.Result{
			Matches: 123,
			Nodes:   456,
			Comps:   78,
			Stats:   intersect.Stats{Intersections: 40, Galloping: 9, Elements: 8000},
			Lanes: []engine.LaneCounts{
				{Matches: 100, Nodes: 300, Comps: 50, Stats: intersect.Stats{Intersections: 30, Galloping: 7, Elements: 6000}},
				{Matches: 23, Nodes: 156, Comps: 28, Stats: intersect.Stats{Intersections: 10, Galloping: 2, Elements: 2000}},
			},
		},
		Done: []RootRange{{Lo: 0, Hi: 10}, {Lo: 14, Hi: 30}},
		Frames: []*engine.Frame{
			{
				SigmaIdx:  2,
				MatMask:   0b101,
				Assigned:  []graph.VertexID{7, 0, 9},
				Cands:     [][]graph.VertexID{{1, 2, 3}, nil, {4}},
				Remaining: []graph.VertexID{5, 6},
				LaneMask:  0b11,
			},
			{
				SigmaIdx: 1,
				MatMask:  0b1,
				Assigned: []graph.VertexID{3},
				Cands:    [][]graph.VertexID{nil},
			},
		},
	}
}

func framesEqual(a, b *engine.Frame) bool {
	if a.SigmaIdx != b.SigmaIdx || a.MatMask != b.MatMask || a.LaneMask != b.LaneMask {
		return false
	}
	eq := func(x, y []graph.VertexID) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !eq(a.Assigned, b.Assigned) || !eq(a.Remaining, b.Remaining) {
		return false
	}
	if len(a.Cands) != len(b.Cands) {
		return false
	}
	for i := range a.Cands {
		if (a.Cands[i] == nil) != (b.Cands[i] == nil) || !eq(a.Cands[i], b.Cands[i]) {
			return false
		}
	}
	return true
}

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	ck := sampleCheckpoint()
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != ck.Fingerprint || got.Cursor != ck.Cursor || got.Complete != ck.Complete {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Base, ck.Base) {
		t.Fatalf("base mismatch: %+v vs %+v", got.Base, ck.Base)
	}
	if len(got.Done) != len(ck.Done) {
		t.Fatalf("done ranges: %v", got.Done)
	}
	for i, r := range ck.Done {
		if got.Done[i] != r {
			t.Fatalf("range %d: %v vs %v", i, got.Done[i], r)
		}
	}
	if len(got.Frames) != len(ck.Frames) {
		t.Fatalf("frames: %d vs %d", len(got.Frames), len(ck.Frames))
	}
	for i := range ck.Frames {
		if !framesEqual(got.Frames[i], ck.Frames[i]) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, got.Frames[i], ck.Frames[i])
		}
	}
}

func TestCheckpointCompleteFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "done.ckpt")
	ck := &Checkpoint{Complete: true, Base: engine.Result{Matches: 9}}
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Complete || got.Base.Matches != 9 {
		t.Fatalf("got %+v", got)
	}
}

// TestCheckpointRejectsCorruption flips every byte of a saved
// checkpoint in turn; the CRC trailer must reject each variant.
func TestCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := sampleCheckpoint().Save(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.ckpt")
	for pos := range orig {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0x40
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(bad); err == nil {
			t.Fatalf("flip at byte %d accepted", pos)
		}
	}
}

func TestCheckpointRejectsTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := sampleCheckpoint().Save(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.ckpt")
	for cut := 0; cut < len(orig); cut++ {
		if err := os.WriteFile(bad, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(bad); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestCheckpointRejectsTrailingGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := sampleCheckpoint().Save(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Splice extra payload in before the CRC and fix the trailer so only
	// the length consistency check can catch it.
	if _, err := LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	grown := append(append([]byte(nil), orig...), 0, 0, 0, 0)
	if err := os.WriteFile(path, grown, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("grown checkpoint accepted")
	}
}

// TestCheckpointIgnoresBitmapProbeWords pins the v3 layout: files
// written while the bitmap kernels existed carry nonzero bitmapProbes
// words (base and per lane), and they must still load, with every other
// counter intact.
func TestCheckpointIgnoresBitmapProbeWords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	ck := sampleCheckpoint()
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header (4+4+8+8+1) and six base counters put the base word at 73;
	// the lane count follows it, and each lane's word is its seventh.
	const baseWord = 4 + 4 + 8 + 8 + 1 + 6*8
	const lane0Word = baseWord + 8 + 4 + 6*8
	if got := binary.LittleEndian.Uint64(raw[baseWord:]); got != 0 {
		t.Fatalf("base bitmapProbes word = %d, want 0", got)
	}
	binary.LittleEndian.PutUint64(raw[baseWord:], 11)
	binary.LittleEndian.PutUint64(raw[lane0Word:], 5)
	body := raw[:len(raw)-4]
	binary.LittleEndian.PutUint32(raw[len(body):], crc32.ChecksumIEEE(body))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Base, ck.Base) {
		t.Fatalf("base mismatch: %+v vs %+v", got.Base, ck.Base)
	}
}

// TestCheckpointSaveIsAtomic: a failed save (unwritable directory) must
// leave an existing checkpoint untouched, and no temp files behind
// after a successful one.
func TestCheckpointSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := sampleCheckpoint().Save(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sampleCheckpoint().Save(filepath.Join(dir, "no", "such", "dir.ckpt")); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save disturbed the existing checkpoint")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover temp files: %v", entries)
	}
}

func TestLoadCheckpointRejectsWrongMagic(t *testing.T) {
	// A CSR graph file shares the CRC-trailer convention but not the
	// magic; it must be refused as a checkpoint.
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.csr")
	if err := gen.Star(20).SaveCSR(gpath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(gpath); err == nil {
		t.Fatal("CSR graph accepted as checkpoint")
	}
}

func TestFingerprintDistinguishesRuns(t *testing.T) {
	g1 := gen.BarabasiAlbert(100, 3, 1)
	g2 := gen.BarabasiAlbert(100, 3, 2)
	mk := func(p *pattern.Pattern) *plan.Plan {
		po := pattern.SymmetryBreaking(p)
		pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	tri, p4 := mk(pattern.Triangle()), mk(pattern.P4())
	base := Fingerprint(g1, tri)
	if base == 0 {
		t.Fatal("zero fingerprint")
	}
	if Fingerprint(g1, tri) != base {
		t.Fatal("fingerprint not deterministic")
	}
	if Fingerprint(g2, tri) == base {
		t.Fatal("different graph, same fingerprint")
	}
	if Fingerprint(g1, p4) == base {
		t.Fatal("different pattern, same fingerprint")
	}
}
