package sweep

import (
	"fmt"

	"doppelganger/internal/core"
	"doppelganger/internal/energy"
)

// Experiment is one named table set of the evaluation. The ordered list of
// them (Experiments) is the one place an experiment's name, its share of the
// simulation grid and its rendering are spelled out: the CLI, the sweep
// server's figure jobs and GridFor all look experiments up here.
type Experiment struct {
	Name string
	// Paper marks the experiments "all" regenerates; the rest are requested
	// by name.
	Paper bool
	// Static experiments render from the hardware model alone: they run no
	// simulation, so there is nothing to prewarm for them.
	Static bool
	// grid adds the variant cells the tables read beyond the baselines.
	grid func(*Grid)
	// Render builds the experiment's tables in print order.
	Render func(*Runner) ([]*Table, error)
}

// Experiments lists every experiment in paper order.
var Experiments = []Experiment{
	{Name: "table2", Paper: true, Render: one((*Runner).Table2)},
	{Name: "fig2", Paper: true, Render: one((*Runner).Fig2)},
	{Name: "fig7", Paper: true, Render: one((*Runner).Fig7)},
	{Name: "fig8", Paper: true, Render: one((*Runner).Fig8)},
	{Name: "fig9", Paper: true, grid: func(g *Grid) { g.MapSpaces = MapSpaces }, Render: two((*Runner).Fig9)},
	{Name: "fig10", Paper: true, grid: dataFracGrid, Render: two((*Runner).Fig10)},
	{Name: "fig11", Paper: true, grid: dataFracGrid, Render: two((*Runner).Fig11)},
	{Name: "fig12", Paper: true, grid: dataFracGrid, Render: one((*Runner).Fig12)},
	{Name: "fig13", Paper: true, Static: true, Render: static((*Runner).Fig13)},
	{Name: "fig14", Paper: true, grid: func(g *Grid) { g.UniFracs = UniFracs }, Render: func(r *Runner) ([]*Table, error) {
		a, b, c, err := r.Fig14()
		return []*Table{a, b, c}, err
	}},
	{Name: "table3", Paper: true, Static: true, Render: static((*Runner).Table3)},
	{Name: "extras", grid: func(g *Grid) { g.Extras = true }, Render: one((*Runner).Extras)},
	{Name: "faults", grid: func(g *Grid) { g.Faults = true }, Render: one((*Runner).FaultSweep)},
	{Name: "quality", grid: func(g *Grid) { g.Quality = true }, Render: two((*Runner).QualitySweep)},
}

func dataFracGrid(g *Grid) { g.DataFracs = DataFracs }

func one(f func(*Runner) (*Table, error)) func(*Runner) ([]*Table, error) {
	return func(r *Runner) ([]*Table, error) {
		t, err := f(r)
		return []*Table{t}, err
	}
}

func two(f func(*Runner) (*Table, *Table, error)) func(*Runner) ([]*Table, error) {
	return func(r *Runner) ([]*Table, error) {
		a, b, err := f(r)
		return []*Table{a, b}, err
	}
}

func static(f func(*Runner) *Table) func(*Runner) ([]*Table, error) {
	return func(r *Runner) ([]*Table, error) { return []*Table{f(r)}, nil }
}

// experimentNamed looks an experiment up by name.
func experimentNamed(name string) (Experiment, bool) {
	for _, x := range Experiments {
		if x.Name == name {
			return x, true
		}
	}
	return Experiment{}, false
}

// Render builds the named experiment's tables in print order.
func (r *Runner) Render(name string) ([]*Table, error) {
	x, ok := experimentNamed(name)
	if !ok {
		return nil, fmt.Errorf("sweep: experiment %q unknown", name)
	}
	return x.Render(r)
}

// coreConventional aliases the conventional-layout constructor for brevity.
func coreConventional(name string, size, ways, cores int) core.Layout {
	return core.ConventionalLayout(name, size, ways, cores)
}

// Table2 reproduces the paper's Table 2: the mean percentage of resident
// LLC blocks that are approximate, per benchmark, measured on the baseline
// 2 MB LLC.
func (r *Runner) Table2() (*Table, error) {
	t := &Table{Title: "Table 2: percentage of LLC blocks that are approximate",
		Columns: []string{"benchmark", "approx footprint"}}
	for _, name := range r.Benchmarks() {
		a, err := r.Baseline(name)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, pct(a.analyzer.ApproxFraction()))
	}
	return t, nil
}

// Fig2 reproduces Fig. 2: approximate-data storage savings under the
// element-wise similarity definition of §2, as the threshold T relaxes.
func (r *Runner) Fig2() (*Table, error) {
	cols := []string{"benchmark"}
	for _, th := range Thresholds {
		cols = append(cols, fmt.Sprintf("T=%g%%", th*100))
	}
	t := &Table{Title: "Fig 2: storage savings vs element-wise similarity threshold", Columns: cols}
	sums := make([]float64, len(Thresholds))
	for _, name := range r.Benchmarks() {
		a, err := r.Baseline(name)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for i, th := range Thresholds {
			v := a.analyzer.ThresholdSavings(th)
			sums[i] += v
			row = append(row, pct(v))
		}
		t.AddRow(row...)
	}
	avg := []string{"average"}
	for _, s := range sums {
		avg = append(avg, pct(s/float64(len(r.Benchmarks()))))
	}
	t.AddRow(avg...)
	return t, nil
}

// Fig7 reproduces Fig. 7: approximate data storage savings when blocks with
// equal Doppelgänger maps share one data entry, for 12/13/14-bit map
// spaces. The paper reports 65.2% (12-bit) and 37.9% (14-bit) on average.
func (r *Runner) Fig7() (*Table, error) {
	cols := []string{"benchmark"}
	for _, m := range MapSpaces {
		cols = append(cols, fmt.Sprintf("%d-bit map", m))
	}
	t := &Table{Title: "Fig 7: storage savings vs map space size", Columns: cols}
	sums := make([]float64, len(MapSpaces))
	for _, name := range r.Benchmarks() {
		a, err := r.Baseline(name)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for i, m := range MapSpaces {
			v := a.analyzer.MapSavings(m)
			sums[i] += v
			row = append(row, pct(v))
		}
		t.AddRow(row...)
	}
	avg := []string{"average"}
	for _, s := range sums {
		avg = append(avg, pct(s/float64(len(r.Benchmarks()))))
	}
	t.AddRow(avg...)
	return t, nil
}

// Fig8 reproduces Fig. 8: Doppelgänger (14-bit) against BΔI compression,
// exact deduplication, and the Doppelgänger+BΔI combination. The paper
// reports 20.9% / 5.3% / 37.9% / 43.9% on average.
func (r *Runner) Fig8() (*Table, error) {
	t := &Table{Title: "Fig 8: storage savings vs compression and deduplication",
		Columns: []string{"benchmark", "BdI", "exact dedup", "14-bit Dopp", "14-bit Dopp + BdI"}}
	var sums [4]float64
	for _, name := range r.Benchmarks() {
		a, err := r.Baseline(name)
		if err != nil {
			return nil, err
		}
		vals := [4]float64{
			a.analyzer.BDISavings(),
			a.analyzer.DedupSavings(),
			a.analyzer.MapSavings(14),
			a.analyzer.DoppBDISavings(),
		}
		for i, v := range vals {
			sums[i] += v
		}
		t.AddRow(name, pct(vals[0]), pct(vals[1]), pct(vals[2]), pct(vals[3]))
	}
	n := float64(len(r.Benchmarks()))
	t.AddRow("average", pct(sums[0]/n), pct(sums[1]/n), pct(sums[2]/n), pct(sums[3]/n))
	return t, nil
}

// Fig9 reproduces Fig. 9: application output error (a) and runtime
// normalized to the baseline 2 MB LLC (b) as the map space varies, with the
// base 1/4 data array.
func (r *Runner) Fig9() (errT, runT *Table, err error) {
	return r.errRuntimeSweep(
		"Fig 9a: output error vs map space", "Fig 9b: normalized runtime vs map space",
		MapSpaces, func(m int) (int, float64) { return m, BaseDataFrac },
		func(m int) string { return fmt.Sprintf("%d-bit map", m) })
}

// Fig10 reproduces Fig. 10: error and normalized runtime as the
// approximate data array shrinks (1/2, 1/4, 1/8 of the tag capacity) at the
// base 14-bit map space.
func (r *Runner) Fig10() (errT, runT *Table, err error) {
	fracs := []int{0, 1, 2}
	return r.errRuntimeSweep(
		"Fig 10a: output error vs data array size", "Fig 10b: normalized runtime vs data array size",
		fracs, func(i int) (int, float64) { return BaseMapBits, DataFracs[i] },
		func(i int) string { return fracName(DataFracs[i]) + " data array" })
}

func fracName(f float64) string {
	switch f {
	case 0.5:
		return "1/2"
	case 0.25:
		return "1/4"
	case 0.125:
		return "1/8"
	case 0.75:
		return "3/4"
	}
	return fmt.Sprintf("%g", f)
}

// errRuntimeSweep runs the split organization across a parameter sweep.
func (r *Runner) errRuntimeSweep(errTitle, runTitle string, params []int,
	point func(p int) (m int, frac float64), label func(p int) string) (errT, runT *Table, err error) {

	cols := []string{"benchmark"}
	for _, p := range params {
		cols = append(cols, label(p))
	}
	errT = &Table{Title: errTitle, Columns: cols}
	runT = &Table{Title: runTitle, Columns: cols}
	errSums := make([]float64, len(params))
	runSums := make([]float64, len(params))
	for _, name := range r.Benchmarks() {
		a, err := r.Baseline(name)
		if err != nil {
			return nil, nil, err
		}
		erow, rrow := []string{name}, []string{name}
		for i, p := range params {
			m, frac := point(p)
			e, err := r.SplitError(name, m, frac)
			if err != nil {
				return nil, nil, err
			}
			st, err := r.SplitTiming(name, m, frac)
			if err != nil {
				return nil, nil, err
			}
			rt := float64(st.Cycles) / float64(a.timing.Cycles)
			errSums[i] += e
			runSums[i] += rt
			erow = append(erow, pct(e))
			rrow = append(rrow, norm(rt))
		}
		errT.AddRow(erow...)
		runT.AddRow(rrow...)
	}
	n := float64(len(r.Benchmarks()))
	eavg, ravg := []string{"average"}, []string{"average"}
	for i := range params {
		eavg = append(eavg, pct(errSums[i]/n))
		ravg = append(ravg, norm(runSums[i]/n))
	}
	errT.AddRow(eavg...)
	runT.AddRow(ravg...)
	return errT, runT, nil
}

// Fig11 reproduces Fig. 11: LLC dynamic (a) and leakage (b) energy
// reduction relative to the baseline, for 1/2, 1/4 and 1/8 data arrays.
// The paper reports 2.55× and 1.41× at 1/4.
func (r *Runner) Fig11() (dynT, leakT *Table, err error) {
	cols := []string{"benchmark"}
	for _, f := range DataFracs {
		cols = append(cols, fracName(f)+" data array")
	}
	dynT = &Table{Title: "Fig 11a: LLC dynamic energy reduction", Columns: cols}
	leakT = &Table{Title: "Fig 11b: LLC leakage energy reduction", Columns: cols}
	baseOrg := energy.BaselineOrg(2<<20, 16, r.Cores)
	dynSums := make([]float64, len(DataFracs))
	leakSums := make([]float64, len(DataFracs))
	for _, name := range r.Benchmarks() {
		a, err := r.Baseline(name)
		if err != nil {
			return nil, nil, err
		}
		baseDyn := baseOrg.DynamicPJ(a.timing.Totals)
		drow, lrow := []string{name}, []string{name}
		for i, frac := range DataFracs {
			res, err := r.SplitTiming(name, BaseMapBits, frac)
			if err != nil {
				return nil, nil, err
			}
			org := energy.SplitOrg(1<<20, 16, SplitConfig(BaseMapBits, frac), r.Cores)
			dyn := baseDyn / org.DynamicPJ(res.Totals)
			leak := baseOrg.LeakagePJ(a.timing.Cycles) / org.LeakagePJ(res.Cycles)
			dynSums[i] += dyn
			leakSums[i] += leak
			drow = append(drow, ratio(dyn))
			lrow = append(lrow, ratio(leak))
		}
		dynT.AddRow(drow...)
		leakT.AddRow(lrow...)
	}
	n := float64(len(r.Benchmarks()))
	davg, lavg := []string{"average"}, []string{"average"}
	for i := range DataFracs {
		davg = append(davg, ratio(dynSums[i]/n))
		lavg = append(lavg, ratio(leakSums[i]/n))
	}
	dynT.AddRow(davg...)
	leakT.AddRow(lavg...)
	return dynT, leakT, nil
}

// Fig12 reproduces Fig. 12: off-chip memory traffic normalized to the
// baseline. The paper reports +3.4% (1/4) and +1.1% (1/2) on average.
func (r *Runner) Fig12() (*Table, error) {
	cols := []string{"benchmark"}
	for _, f := range DataFracs {
		cols = append(cols, fracName(f)+" data array")
	}
	t := &Table{Title: "Fig 12: normalized off-chip memory traffic", Columns: cols}
	sums := make([]float64, len(DataFracs))
	for _, name := range r.Benchmarks() {
		a, err := r.Baseline(name)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for i, frac := range DataFracs {
			res, err := r.SplitTiming(name, BaseMapBits, frac)
			if err != nil {
				return nil, err
			}
			v := float64(res.MemTraffic()) / float64(a.timing.MemTraffic())
			sums[i] += v
			row = append(row, norm(v))
		}
		t.AddRow(row...)
	}
	n := float64(len(r.Benchmarks()))
	avg := []string{"average"}
	for i := range DataFracs {
		avg = append(avg, norm(sums[i]/n))
	}
	t.AddRow(avg...)
	return t, nil
}

// Fig13 reproduces Fig. 13: LLC area reduction relative to the baseline for
// the split design (1/2, 1/4, 1/8 data arrays) and uniDoppelgänger (3/4,
// 1/2, 1/4). The paper reports 1.36×/1.55×/1.70× and up to 3.15×. This
// experiment is static — no workload runs, so it cannot fail.
func (r *Runner) Fig13() *Table {
	t := &Table{Title: "Fig 13: LLC area reduction",
		Columns: []string{"organization", "data array", "area (mm2)", "reduction"}}
	base := energy.BaselineOrg(2<<20, 16, r.Cores)
	t.AddRow("baseline 2MB", "-", fmt.Sprintf("%.2f", base.AreaMM2()), "1.00x")
	for _, f := range DataFracs {
		org := energy.SplitOrg(1<<20, 16, SplitConfig(BaseMapBits, f), r.Cores)
		t.AddRow("doppelganger", fracName(f),
			fmt.Sprintf("%.2f", org.AreaMM2()), ratio(base.AreaMM2()/org.AreaMM2()))
	}
	for _, f := range UniFracs {
		org := energy.UnifiedOrg(UnifiedConfig(BaseMapBits, f), r.Cores)
		t.AddRow("unidoppelganger", fracName(f),
			fmt.Sprintf("%.2f", org.AreaMM2()), ratio(base.AreaMM2()/org.AreaMM2()))
	}
	return t
}

// Fig14 reproduces Fig. 14: uniDoppelgänger output error (a), normalized
// runtime (b) and LLC dynamic energy reduction (c) for 3/4, 1/2 and 1/4
// data arrays (fractions of the baseline LLC).
func (r *Runner) Fig14() (errT, runT, dynT *Table, err error) {
	cols := []string{"benchmark"}
	for _, f := range UniFracs {
		cols = append(cols, fracName(f)+" data array")
	}
	errT = &Table{Title: "Fig 14a: uniDoppelganger output error", Columns: cols}
	runT = &Table{Title: "Fig 14b: uniDoppelganger normalized runtime", Columns: cols}
	dynT = &Table{Title: "Fig 14c: uniDoppelganger LLC dynamic energy reduction", Columns: cols}
	baseOrg := energy.BaselineOrg(2<<20, 16, r.Cores)
	eS := make([]float64, len(UniFracs))
	rS := make([]float64, len(UniFracs))
	dS := make([]float64, len(UniFracs))
	for _, name := range r.Benchmarks() {
		a, err := r.Baseline(name)
		if err != nil {
			return nil, nil, nil, err
		}
		baseDyn := baseOrg.DynamicPJ(a.timing.Totals)
		erow, rrow, drow := []string{name}, []string{name}, []string{name}
		for i, f := range UniFracs {
			e, err := r.UnifiedError(name, BaseMapBits, f)
			if err != nil {
				return nil, nil, nil, err
			}
			res, err := r.UnifiedTiming(name, BaseMapBits, f)
			if err != nil {
				return nil, nil, nil, err
			}
			rt := float64(res.Cycles) / float64(a.timing.Cycles)
			org := energy.UnifiedOrg(UnifiedConfig(BaseMapBits, f), r.Cores)
			dyn := baseDyn / org.DynamicPJ(res.Totals)
			eS[i] += e
			rS[i] += rt
			dS[i] += dyn
			erow = append(erow, pct(e))
			rrow = append(rrow, norm(rt))
			drow = append(drow, ratio(dyn))
		}
		errT.AddRow(erow...)
		runT.AddRow(rrow...)
		dynT.AddRow(drow...)
	}
	n := float64(len(r.Benchmarks()))
	eavg, ravg, davg := []string{"average"}, []string{"average"}, []string{"average"}
	for i := range UniFracs {
		eavg = append(eavg, pct(eS[i]/n))
		ravg = append(ravg, norm(rS[i]/n))
		davg = append(davg, ratio(dS[i]/n))
	}
	errT.AddRow(eavg...)
	runT.AddRow(ravg...)
	dynT.AddRow(davg...)
	return errT, runT, dynT, nil
}

// Table3 reproduces the paper's Table 3: per-structure field widths, sizes,
// area, access latency and access energy, for the baseline, the split
// organization's three structures and uniDoppelgänger's two. Static.
func (r *Runner) Table3() *Table {
	t := &Table{Title: "Table 3: hardware cost, access latency and energy",
		Columns: []string{"structure", "entries", "tag-entry bits", "size (KB)",
			"area (mm2)", "lat tag/data (ns)", "energy tag/data (pJ)"},
		Notes: []string{
			"The MTag stores the full map value (the set index is an XOR-fold of the whole map): " +
				"21 bits at M=14 where the paper's Table 3 lists 20 (see DESIGN.md §6).",
		}}

	add := func(s energy.Structure, entries, metaBits int) {
		latData, eData := "-", "-"
		if s.DataKB > 0 {
			latData = fmt.Sprintf("%.2f", s.DataLatencyNS())
			eData = fmt.Sprintf("%.1f", s.DataEnergyPJ())
		}
		t.AddRow(s.Name, fmt.Sprintf("%d", entries), fmt.Sprintf("%d", metaBits),
			fmt.Sprintf("%.0f", s.TotalKB()), fmt.Sprintf("%.2f", s.AreaMM2()),
			fmt.Sprintf("%.2f/%s", s.TagLatencyNS(), latData),
			fmt.Sprintf("%.1f/%s", s.TagEnergyPJ(), eData))
	}

	base := energy.FromLayout(coreConventional("baseline LLC", 2<<20, 16, r.Cores))
	add(base, (2<<20)/64, coreConventional("baseline LLC", 2<<20, 16, r.Cores).MetaBits())
	prec := energy.FromLayout(coreConventional("precise cache", 1<<20, 16, r.Cores))
	add(prec, (1<<20)/64, coreConventional("precise cache", 1<<20, 16, r.Cores).MetaBits())

	dc := SplitConfig(BaseMapBits, BaseDataFrac)
	dtl := dc.TagArrayLayout(r.Cores)
	add(energy.FromLayout(dtl), dtl.Entries, dtl.MetaBits())
	ddl := dc.DataArrayLayout()
	add(energy.FromLayout(ddl), ddl.Entries, ddl.MetaBits())

	uc := UnifiedConfig(BaseMapBits, 0.5)
	utl := uc.TagArrayLayout(r.Cores)
	add(energy.FromLayout(utl), utl.Entries, utl.MetaBits())
	udl := uc.DataArrayLayout()
	add(energy.FromLayout(udl), udl.Entries, udl.MetaBits())
	return t
}
