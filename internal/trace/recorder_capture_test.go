package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"doppelganger/internal/approx"
	"doppelganger/internal/memdata"
)

// recorderCapture wraps a bare recorder in the minimal capture that persists
// it: no annotated regions and an empty initial image.
func recorderCapture(t testing.TB, r *Recorder) *Capture {
	t.Helper()
	ann, err := approx.NewAnnotations()
	if err != nil {
		t.Fatal(err)
	}
	return &Capture{
		Header:      FileHeader{Benchmark: "recorder", Scale: 1, Cores: len(r.Cores), ConfigKey: "recorder-round-trip"},
		Annotations: ann,
		InitialMem:  memdata.NewStore(),
		Recorder:    r,
	}
}

// roundTripRecorder serializes r as a capture and decodes it back.
func roundTripRecorder(t testing.TB, r *Recorder) (*Recorder, error) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := recorderCapture(t, r).WriteTo(&buf); err != nil {
		return nil, err
	}
	got, err := ReadCapture(&buf)
	if err != nil {
		return nil, err
	}
	return got.Recorder, nil
}

// sameRecorder compares two recorders record for record. A capture keeps a
// store's payload but not a load's value, which replay reads back from the
// image, so loads compare without Val.
func sameRecorder(a, b *Recorder) bool {
	if len(a.Cores) != len(b.Cores) || len(a.Order) != len(b.Order) {
		return false
	}
	for c := range a.Cores {
		if len(a.Cores[c]) != len(b.Cores[c]) {
			return false
		}
		for i := range a.Cores[c] {
			ra, rb := a.Cores[c][i], b.Cores[c][i]
			if !ra.Write {
				ra.Val, rb.Val = 0, 0
			}
			if ra != rb {
				return false
			}
		}
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			return false
		}
	}
	return true
}

// TestSerializeRoundTrip: a recorder's per-core streams, including an empty
// core, survive the capture encoding record for record.
func TestSerializeRoundTrip(t *testing.T) {
	r := NewRecorder(3)
	r.Work(0, 17)
	r.Access(0, 0x1234, false, 4, 0, true)
	r.Access(1, 0xFFFFFFC0, true, 8, 0xDEADBEEFCAFEBABE, false)
	// Core 2 intentionally empty.

	got, err := roundTripRecorder(t, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cores) != 3 || len(got.Cores[0]) != 1 || len(got.Cores[1]) != 1 || len(got.Cores[2]) != 0 {
		t.Fatalf("shape = %v", got.Cores)
	}
	if !sameRecorder(got, r) {
		t.Errorf("records differ: %+v vs %+v", got.Cores, r.Cores)
	}
}

func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(addrs []uint32, vals []uint64, flags []uint8) bool {
		r := NewRecorder(2)
		for i, a := range addrs {
			var v uint64
			if i < len(vals) {
				v = vals[i]
			}
			var fl uint8
			if i < len(flags) {
				fl = flags[i]
			}
			r.Work(i%2, i%7)
			r.Access(i%2, memdata.Addr(a), fl&1 != 0, int(1+fl%8), v, fl&2 != 0)
		}
		got, err := roundTripRecorder(t, r)
		return err == nil && sameRecorder(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDeserializeRejectsGarbage: short input, a foreign magic, an unknown
// version and a truncated stream are each refused.
func TestDeserializeRejectsGarbage(t *testing.T) {
	if _, err := ReadCapture(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("short input accepted")
	}
	if _, err := ReadCapture(bytes.NewReader([]byte("XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))); err == nil {
		t.Error("bad magic accepted")
	}

	r := NewRecorder(1)
	r.Access(0, 0x40, false, 4, 0, false)
	var buf bytes.Buffer
	if _, err := recorderCapture(t, r).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	bad := bytes.Clone(enc)
	binary.LittleEndian.PutUint16(bad[4:], CaptureVersion+8)
	if _, err := ReadCapture(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := ReadCapture(bytes.NewReader(enc[:len(enc)-3])); err == nil {
		t.Error("truncated trace accepted")
	}
}
