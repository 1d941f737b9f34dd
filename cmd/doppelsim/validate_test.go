package main

import (
	"math"
	"strings"
	"testing"
)

func TestValidateOptions(t *testing.T) {
	ok := simOptions{Scale: 1, Cores: 4, MapBits: 14, DataFrac: 0.25, FaultRate: 1e-4, CanaryRate: 0.05}
	if err := validateOptions(ok); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	// The -quality-budget sentinel: the zero default means "guard off", but
	// an explicit non-positive budget is a mistake.
	if err := validateOptions(simOptions{Scale: 1, Cores: 1, MapBits: 14, QualityBudget: 0}); err != nil {
		t.Errorf("default zero budget rejected: %v", err)
	}
	withBudget := ok
	withBudget.QualityBudget, withBudget.QualityBudgetSet = 0.05, true
	if err := validateOptions(withBudget); err != nil {
		t.Errorf("explicit valid budget rejected: %v", err)
	}
	bad := []struct {
		name string
		o    simOptions
		flag string
	}{
		{"zero scale", simOptions{Cores: 1, MapBits: 14}, "-scale"},
		{"NaN scale", simOptions{Scale: math.NaN(), Cores: 1, MapBits: 14}, "-scale"},
		{"zero cores", simOptions{Scale: 1, MapBits: 14}, "-cores"},
		{"zero map bits", simOptions{Scale: 1, Cores: 1}, "-map"},
		{"huge map bits", simOptions{Scale: 1, Cores: 1, MapBits: 48}, "-map"},
		{"datafrac above one", simOptions{Scale: 1, Cores: 1, MapBits: 14, DataFrac: 1.5}, "-datafrac"},
		{"negative fault rate", simOptions{Scale: 1, Cores: 1, MapBits: 14, FaultRate: -1e-4}, "-fault-rate"},
		{"fault rate above one", simOptions{Scale: 1, Cores: 1, MapBits: 14, FaultRate: 2}, "-fault-rate"},
		{"NaN fault rate", simOptions{Scale: 1, Cores: 1, MapBits: 14, FaultRate: math.NaN()}, "-fault-rate"},
		{"explicit zero budget", simOptions{Scale: 1, Cores: 1, MapBits: 14, QualityBudget: 0, QualityBudgetSet: true}, "-quality-budget"},
		{"explicit negative budget", simOptions{Scale: 1, Cores: 1, MapBits: 14, QualityBudget: -0.05, QualityBudgetSet: true}, "-quality-budget"},
		{"infinite budget", simOptions{Scale: 1, Cores: 1, MapBits: 14, QualityBudget: math.Inf(1), QualityBudgetSet: true}, "-quality-budget"},
		{"canary above one", simOptions{Scale: 1, Cores: 1, MapBits: 14, CanaryRate: 2}, "-canary-rate"},
		{"NaN canary", simOptions{Scale: 1, Cores: 1, MapBits: 14, CanaryRate: math.NaN()}, "-canary-rate"},
		{"bad trace verify", simOptions{Scale: 1, Cores: 1, MapBits: 14, TraceVerify: "always"}, "-trace-verify"},
		{"savetrace with replay", simOptions{Scale: 1, Cores: 1, MapBits: 14, SaveTrace: "a.dgt", Replay: "b.dgt"}, "-savetrace"},
		{"replay with faults", simOptions{Scale: 1, Cores: 1, MapBits: 14, Replay: "b.dgt", FaultRate: 1e-4}, "-fault-rate"},
		{"replay with quality budget", simOptions{Scale: 1, Cores: 1, MapBits: 14, Replay: "b.dgt", QualityBudget: 0.05, QualityBudgetSet: true}, "-quality-budget"},
	}
	for _, tc := range bad {
		err := validateOptions(tc.o)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error does not name %s: %v", tc.name, tc.flag, err)
		}
	}
}
