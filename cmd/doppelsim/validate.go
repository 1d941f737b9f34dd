package main

import (
	"errors"

	"doppelganger/internal/flagcheck"
)

// simOptions are the numeric flags validateOptions checks. QualityBudgetSet
// reports whether -quality-budget was supplied explicitly (via flag.Visit):
// the default 0 legitimately means "guard off", but an explicit zero or
// negative budget is a configuration mistake worth rejecting loudly.
type simOptions struct {
	Scale            float64
	Cores            int
	MapBits          int
	DataFrac         float64
	FaultRate        float64
	SaveTrace        string
	Replay           string
	QualityBudget    float64
	QualityBudgetSet bool
	CanaryRate       float64
	TraceDir         string
	TraceCapture     bool
	TraceReplay      bool
	TraceVerify      string
}

// validateOptions rejects flag values that would otherwise fail obscurely
// mid-run (or silently simulate something other than what was asked for).
// The checks themselves live in internal/flagcheck, shared with experiments
// and sweepd.
func validateOptions(o simOptions) error {
	var budgetErr error
	if o.QualityBudgetSet {
		budgetErr = flagcheck.PositiveFraction("-quality-budget",
			"e.g. 0.05; omit the flag to disable the guard", o.QualityBudget)
	}
	return flagcheck.First(
		flagcheck.PositiveScale("-scale", o.Scale),
		flagcheck.AtLeast("-cores", o.Cores, 1),
		flagcheck.IntRange("-map", o.MapBits, 1, 32, "bits"),
		flagcheck.Fraction("-datafrac", "0 = the organization's default", o.DataFrac),
		flagcheck.Probability("-fault-rate", o.FaultRate),
		budgetErr,
		flagcheck.Probability("-canary-rate", o.CanaryRate),
		flagcheck.TraceFlags(o.TraceDir, o.TraceCapture, o.TraceReplay),
		flagcheck.TraceVerify("-trace-verify", o.TraceVerify),
		replayFlags(o),
	)
}

// replayFlags rejects combinations the -savetrace/-replay paths would
// silently ignore: the two modes exclude each other, and a replay applies
// neither fault injection nor the quality guard.
func replayFlags(o simOptions) error {
	switch {
	case o.SaveTrace != "" && o.Replay != "":
		return errors.New("-savetrace and -replay are mutually exclusive (record a capture, then replay it in a second run)")
	case o.Replay != "" && o.FaultRate > 0:
		return errors.New("-replay applies no fault injection; drop -fault-rate")
	case o.Replay != "" && o.QualityBudgetSet:
		return errors.New("-replay applies no quality guard; drop -quality-budget")
	}
	return nil
}
