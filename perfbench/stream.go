package main

import (
	"math/rand"

	"doppelganger/internal/server"
	"doppelganger/internal/sweep"
	"doppelganger/internal/workloads"
)

// Submission is one request of the sweepd-errors stream. Repeat marks a
// re-submission of a cell the same client already submitted, so it must be
// answered from the server's memo.
type Submission struct {
	Cell   server.Cell
	Repeat bool
}

// errorCellSpace lists every error cell the sweepd-errors workload draws
// from, in a fixed order: per benchmark, the split map/data-size grid of
// Figs. 9 and 10, the uni data sizes of Fig. 14, fault cells on every
// organization at the two higher default rates, and guarded quality cells
// at every default rate. That is 24 cells per benchmark, 216 in all.
func errorCellSpace() []server.Cell {
	var cells []server.Cell
	for _, f := range workloads.All() {
		b := f.Name
		for _, m := range sweep.MapSpaces {
			for _, frac := range sweep.DataFracs {
				cells = append(cells, server.Cell{Kind: "split-error", Bench: b, M: m, Frac: frac})
			}
		}
		for _, frac := range sweep.UniFracs {
			cells = append(cells, server.Cell{Kind: "uni-error", Bench: b, M: sweep.BaseMapBits, Frac: frac})
		}
		for _, rate := range sweep.DefaultFaultRates {
			if rate > sweep.DefaultFaultRates[0] {
				for _, org := range sweep.FaultOrgs {
					cells = append(cells, server.Cell{Kind: "fault-error", Bench: b, Org: org, Rate: rate})
				}
			}
			for _, org := range sweep.GuardedOrgs {
				cells = append(cells, server.Cell{Kind: "quality-error", Bench: b, Org: org, Rate: rate})
			}
		}
	}
	return cells
}

// generateStream deals the whole cell space to clients closed-loop clients
// and mixes repeats into each client's sequence. Every cell is a first
// submission exactly once, so each stream computes the same set of cells
// whatever the seed. Cells are dealt round-robin in the space's fixed
// order, so every client gets the same mix of benchmarks and kinds and
// the load stays balanced across seeds; the seed decides the order each
// client submits in and which earlier cells are repeated where. A repeat
// only names a cell its own client submitted earlier: a closed loop has
// that answer in hand, so the repeat is a memo hit by construction.
// repeats is the total across clients.
func generateStream(seed int64, clients, repeats int) [][]Submission {
	rng := rand.New(rand.NewSource(seed))
	cells := errorCellSpace()
	streams := make([][]Submission, clients)
	for c := range streams {
		var firsts []server.Cell
		for i := c; i < len(cells); i += clients {
			firsts = append(firsts, cells[i])
		}
		rng.Shuffle(len(firsts), func(i, j int) { firsts[i], firsts[j] = firsts[j], firsts[i] })
		reps := repeats / clients
		if c < repeats%clients {
			reps++
		}
		seq := make([]Submission, 0, len(firsts)+reps)
		next := 0
		for next < len(firsts) || reps > 0 {
			// Draw a repeat with probability proportional to the repeats
			// left, so they spread over the whole sequence.
			if next > 0 && reps > 0 && (next == len(firsts) || rng.Intn(reps+len(firsts)-next) < reps) {
				seq = append(seq, Submission{Cell: firsts[rng.Intn(next)], Repeat: true})
				reps--
				continue
			}
			seq = append(seq, Submission{Cell: firsts[next]})
			next++
		}
		streams[c] = seq
	}
	return streams
}
