package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"selfstab/internal/geom"
)

// goldenSnapshot is a fixed document exercising every payload shape the
// format carries: one op of each kind-family, a non-trivial blueprint,
// floats that stress round-tripping.
func goldenSnapshot() *Snapshot {
	bp := Blueprint{
		Deploy: Deployment{Kind: DeployRandom, N: 64},
		Options: Options{
			Seed: 7, Range: 0.125, DAG: true, Gamma: 81, Sticky: true,
			Tau: 1, CacheTTL: 8, Activation: 1, StableWindow: 5, Tiles: 4,
		},
	}
	ops := []Op{
		{Step: 0, Kind: OpAttachChurn, Churn: &ChurnConfig{
			ArrivalRate: 0.3, DepartureRate: 0.1, CrashRate: 0.2,
			SleepSteps: 10, MinAlive: 2,
		}},
		{Step: 3, Kind: OpAttachTraffic, Traffic: &TrafficConfig{
			QueueCap: 32, Discipline: DropHead, Budget: 2, TTL: 64,
			Flows: []Flow{
				{Kind: CBR, SrcID: 1, DstID: 2, Rate: 0.5, Start: 5, Stop: 100},
				{Kind: Poisson, DstID: 9, Rate: 0.1, HotspotSources: 6},
			},
		}},
		{Step: 3, Kind: OpAttachEnergy, Energy: &EnergyConfig{
			Capacity: 0.2, IdleHeadCost: 0.002, TxCost: 0.0005,
			Rotation: true, RotationLevels: 8,
		}},
		{Step: 7, Kind: OpFaults, Frac: 0.25},
		{Step: 9, Kind: OpAddNodes, Points: []geom.Point{{X: 0.1, Y: 0.2}, {X: 0.3333333333333333, Y: 0.9}}},
		{Step: 11, Kind: OpCrashNodes, IDs: []int64{4, 17}},
		{Step: 12, Kind: OpSleepNodes, IDs: []int64{5}},
		{Step: 14, Kind: OpWakeNodes, IDs: []int64{5}},
		{Step: 15, Kind: OpRemoveNodes, IDs: []int64{6}},
		{Step: 16, Kind: OpSetAutoCompact, Frac: 0.25},
		{Step: 18, Kind: OpCompact},
		{Step: 20, Kind: OpSetPositions, Points: []geom.Point{{X: 0.5, Y: 0.5}}},
		{Step: 21, Kind: OpSetDefense, Defense: &DefenseConfig{
			HeadAdmission: true, HeadRate: 0.75, HeadBurst: 4, SourceCap: 3,
		}},
		{Step: 21, Kind: OpSpawnFlows, Traffic: &TrafficConfig{
			Flows: []Flow{{Kind: CBR, SrcID: 3, DstID: 8, Rate: 2.5}},
		}},
		{Step: 21, Kind: OpScaleDensity, IDs: []int64{11, 12}, Scale: 4.5},
		{Step: 21, Kind: OpEvictNodes, IDs: []int64{11}},
		{Step: 22, Kind: OpDetachTraffic},
		{Step: 22, Kind: OpDetachEnergy},
		{Step: 22, Kind: OpDetachChurn},
	}
	return New(bp, ops, 25)
}

// TestGoldenFile pins the on-disk encoding: any accidental format drift —
// a renamed field, reordered struct, changed float formatting — fails
// here before it corrupts anyone's checkpoints. Regenerate deliberately
// with SELFSTAB_UPDATE_GOLDEN=1 go test ./internal/snapshot (and bump
// Version if the change is semantic).
func TestGoldenFile(t *testing.T) {
	path := filepath.Join("testdata", "golden_v2.json")
	var buf bytes.Buffer
	if err := goldenSnapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("SELFSTAB_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with SELFSTAB_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("encoding drifted from the golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestGoldenRoundTrip: the golden document decodes back to the exact
// in-memory snapshot it was built from.
func TestGoldenRoundTrip(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenSnapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("decoded snapshot differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestEncodeDecodeRoundTrip: an encode/decode cycle is the identity,
// including float bit patterns.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := goldenSnapshot()
	s.Blueprint.Deploy = Deployment{Kind: DeployExplicit, Points: []geom.Point{
		{X: 0.123456789012345678, Y: 1.0 / 3.0},
		{X: 5e-324, Y: 0.9999999999999999},
	}}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip not identity:\ngot  %+v\nwant %+v", got, s)
	}
}

// TestDecodeRejectsVersionMismatch: a future (or past) format version is
// refused with an error naming both versions — never replayed.
func TestDecodeRejectsVersionMismatch(t *testing.T) {
	s := goldenSnapshot()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	doc := strings.Replace(buf.String(), `"version": 2`, `"version": 99`, 1)
	_, err := Decode(strings.NewReader(doc))
	if err == nil {
		t.Fatal("version 99 accepted")
	}
	if !strings.Contains(err.Error(), "version 99") {
		t.Errorf("error %q does not name the offending version", err)
	}
}

// TestDecodeRejectsBadDocuments: malformed inputs fail with clear errors.
func TestDecodeRejectsBadDocuments(t *testing.T) {
	tests := []struct {
		name string
		doc  string
		want string
	}{
		{"not json", "hello", "not a snapshot document"},
		{"wrong magic", `{"header":{"magic":"nope","version":2}}`, "bad magic"},
		{"no header", `{}`, "bad magic"},
		{"unknown field", `{"header":{"magic":"selfstab-snapshot","version":2},"blueprint":{"deploy":{"kind":"grid"}},"bogus":1}`, "decode"},
		{"bad deploy kind", `{"header":{"magic":"selfstab-snapshot","version":2},"blueprint":{"deploy":{"kind":"psychic"}}}`, "unknown deployment kind"},
		{"op beyond step", `{"header":{"magic":"selfstab-snapshot","version":2,"step":5},"blueprint":{"deploy":{"kind":"grid"}},"ops":[{"step":9,"kind":"compact"}]}`, "beyond the snapshot step"},
		{"ops out of order", `{"header":{"magic":"selfstab-snapshot","version":2,"step":5},"blueprint":{"deploy":{"kind":"grid"}},"ops":[{"step":4,"kind":"compact"},{"step":2,"kind":"compact"}]}`, "out of order"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tt.doc))
			if err == nil {
				t.Fatalf("Decode(%q) succeeded", tt.doc)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

// TestEncodeRefusesForeignHeader: Encode never writes a document this
// build's Decode would reject.
func TestEncodeRefusesForeignHeader(t *testing.T) {
	s := goldenSnapshot()
	s.Header.Version = 3
	if err := s.Encode(&bytes.Buffer{}); err == nil {
		t.Error("foreign version encoded")
	}
	s = goldenSnapshot()
	s.Header.Magic = "nope"
	if err := s.Encode(&bytes.Buffer{}); err == nil {
		t.Error("foreign magic encoded")
	}
}

// FuzzSnapshotDecode feeds arbitrary bytes to Decode. It must not panic,
// and every document it accepts must encode, decode again and re-encode
// to the same bytes: a checkpoint read back writes back unchanged. The
// seed corpus is the golden file, one small document per op kind, an
// out-of-order journal and a foreign version.
func FuzzSnapshotDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := Decode(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := s.Encode(&first); err != nil {
			t.Fatalf("accepted document does not encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("encoded document does not decode: %v\n%s", err, first.Bytes())
		}
		if err := again.Encode(&second); err != nil {
			t.Fatalf("re-decoded document does not encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding changed the document:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
