package main

import (
	"reflect"
	"testing"
)

func TestStreamSameSeedSameStream(t *testing.T) {
	a := generateStream(7, 2, streamRepeats)
	b := generateStream(7, 2, streamRepeats)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced different streams")
	}
	if reflect.DeepEqual(a, generateStream(8, 2, streamRepeats)) {
		t.Fatal("different seeds produced the same stream")
	}
}

func TestStreamShape(t *testing.T) {
	space := errorCellSpace()
	for _, c := range space {
		if err := c.Validate(); err != nil {
			t.Fatalf("cell %+v: %v", c, err)
		}
	}
	for _, seed := range []int64{1, 2, 3, 99} {
		for _, clients := range []int{1, 2, 3} {
			streams := generateStream(seed, clients, streamRepeats)
			if len(streams) != clients {
				t.Fatalf("%d client streams, want %d", len(streams), clients)
			}
			seen := map[string]bool{}
			repeats := 0
			for _, seq := range streams {
				mine := map[string]bool{}
				for i, s := range seq {
					key := s.Cell.Key()
					if s.Repeat {
						repeats++
						if !mine[key] {
							t.Fatalf("seed %d: repeat %d of %s before this client submitted it", seed, i, key)
						}
						continue
					}
					if seen[key] {
						t.Fatalf("seed %d: %s is a first submission twice", seed, key)
					}
					seen[key], mine[key] = true, true
				}
			}
			if len(seen) != len(space) || len(seen) < 200 {
				t.Errorf("seed %d: %d first submissions, want all %d cells and at least 200", seed, len(seen), len(space))
			}
			if repeats != streamRepeats {
				t.Errorf("seed %d: %d repeats, want %d", seed, repeats, streamRepeats)
			}
		}
	}
}
