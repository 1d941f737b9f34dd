package sweep

import (
	"context"

	"doppelganger/internal/approx"
	"doppelganger/internal/core"
)

// extraConfig is one extension configuration the Extras table evaluates;
// kind (custom-error or custom-timing) selects which simulator — and which
// memo cache — its cell uses. The tag is the cell's Org.
type extraConfig struct {
	tag  string
	kind string
	cfg  core.Config
}

// extrasConfigs returns the extension configurations at the base geometry
// (14-bit map, 1/4 data array); shared by Extras and the engine grid.
func extrasConfigs() []extraConfig {
	base := SplitConfig(BaseMapBits, BaseDataFrac)
	minmax := base
	minmax.MapSpec.Hash = approx.HashMinMax
	avgonly := base
	avgonly.MapSpec.Hash = approx.HashAvgOnly
	aware := base
	aware.DataPolicy = core.ReplaceTagCountAware
	compressed := base
	compressed.CompressedData = true
	compressed.CompressBudget = 0.5
	return []extraConfig{
		{tag: "minmax", kind: "custom-error", cfg: minmax},
		{tag: "avgonly", kind: "custom-error", cfg: avgonly},
		{tag: "aware", kind: "custom-timing", cfg: aware},
		{tag: "compressed", kind: "custom-timing", cfg: compressed},
	}
}

// Extras evaluates this repository's extensions beyond the paper, all at
// the base configuration (14-bit map, 1/4 data array):
//
//   - alternative similarity hashes (§3.7 future work): min+max and
//     average-only versus the paper's average+range, by output error;
//   - the tag-count-aware data replacement policy (§3.5 future work)
//     versus LRU, by normalized runtime;
//   - the BΔI-compressed data array (§5.1's Doppelgänger+BΔI) at half the
//     SRAM bytes, by normalized runtime.
func (r *Runner) Extras() (*Table, error) {
	t := &Table{
		Title: "Extras: extensions beyond the paper (14-bit map, 1/4 data array)",
		Columns: []string{"benchmark",
			"err avg+range", "err min+max", "err avg-only",
			"rt lru", "rt tag-aware", "rt compressed/2"},
		Notes: []string{
			"rt columns are runtime normalized to the baseline 2MB LLC;",
			"compressed/2 stores BdI-compressed payloads in half the data-array bytes.",
		},
	}

	sums := make([]float64, 6)
	for _, name := range r.Benchmarks() {
		a, err := r.Baseline(name)
		if err != nil {
			return nil, err
		}
		splitErr, err := r.SplitError(name, BaseMapBits, BaseDataFrac)
		if err != nil {
			return nil, err
		}
		splitTime, err := r.SplitTiming(name, BaseMapBits, BaseDataFrac)
		if err != nil {
			return nil, err
		}
		byTag := map[string]CellResult{}
		for _, x := range extrasConfigs() {
			if byTag[x.tag], err = r.RunCell(context.Background(), Cell{Kind: x.kind, Bench: name, Org: x.tag}); err != nil {
				return nil, err
			}
		}
		vals := []float64{
			splitErr, byTag["minmax"].Error, byTag["avgonly"].Error,
			float64(splitTime.Cycles) / float64(a.timing.Cycles),
			float64(byTag["aware"].Timing.Cycles) / float64(a.timing.Cycles),
			float64(byTag["compressed"].Timing.Cycles) / float64(a.timing.Cycles),
		}
		for i, v := range vals {
			sums[i] += v
		}
		t.AddRow(name, pct(vals[0]), pct(vals[1]), pct(vals[2]),
			norm(vals[3]), norm(vals[4]), norm(vals[5]))
	}
	n := float64(len(r.Benchmarks()))
	t.AddRow("average", pct(sums[0]/n), pct(sums[1]/n), pct(sums[2]/n),
		norm(sums[3]/n), norm(sums[4]/n), norm(sums[5]/n))
	return t, nil
}
