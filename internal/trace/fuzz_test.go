package trace

import (
	"bytes"
	"testing"

	"doppelganger/internal/approx"
	"doppelganger/internal/memdata"
)

// FuzzTraceFileDecode drives the DGTC capture decoder with arbitrary bytes.
// Hostile headers, truncated or torn files, corrupt CRCs and oversized
// counts must all produce errors — never a panic and never an allocation
// proportional to a lied-about length — and any input the decoder accepts
// must survive a re-encode/re-decode cycle byte-identically.
func FuzzTraceFileDecode(f *testing.F) {
	// Seed with real captures of increasing richness plus the rejection
	// corpus (wrong magic, bare preamble, truncated section).
	seed := func(build func(c *Capture)) {
		ann, err := approx.NewAnnotations(
			approx.Region{Name: "x", Start: 0x1000, End: 0x2000, Type: memdata.F32, Min: -1, Max: 1})
		if err != nil {
			f.Fatal(err)
		}
		c := &Capture{
			Header:      FileHeader{Benchmark: "b", Scale: 0.5, Cores: 2, Seed: 1, ConfigKey: "k"},
			Annotations: ann,
			InitialMem:  memdata.NewStore(),
			Recorder:    NewRecorder(2),
		}
		build(c)
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(func(c *Capture) {})
	seed(func(c *Capture) {
		c.InitialMem.WriteF32(0x1000, 2.5)
		c.InitialMem.WriteU8(0xFFFFFFC0, 9)
		c.Recorder.Work(0, 3)
		c.Recorder.Access(0, 0x1000, false, 4, 0, true)
		c.Recorder.Access(1, 0xFFFFFFC0, true, 1, 9, false)
		c.Output = []float64{1, -0.5}
	})
	f.Add([]byte{'D', 'P', 'T', 'R', 1, 0, 0, 0}) // the retired trace-stream magic
	f.Add([]byte("DGTC"))
	f.Add([]byte("DGTC\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCapture(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatalf("re-encode of accepted capture failed: %v", err)
		}
		c2, err := ReadCapture(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of re-encoded capture failed: %v", err)
		}
		var buf2 bytes.Buffer
		if _, err := c2.WriteTo(&buf2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("accepted capture is not byte-stable through decode∘encode")
		}
	})
}
