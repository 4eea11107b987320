package c3

import (
	"c3/internal/faults"
	"c3/internal/litmus"
)

// FaultPlan describes a deterministic fault-injection plan for the
// cross-cluster CXL links (drop/duplication/delay rates, stall windows,
// retry budget). The zero value is a perfect fabric.
type FaultPlan = faults.Plan

// ParseFaultPlan resolves a fault-plan spec: a named preset ("light",
// "noisy", "stall", "blackout", "crash", "crash-rejoin", "crash-noisy"
// — see FaultPlans) or a key=value string such as
// "drop=0.01,dup=0.01,delay=0.1,delaymax=200,stall=100:900,
// retries=8,seed=7,crash=1@2500" (crash values are host@tick[:rejoin]).
func ParseFaultPlan(spec string) (FaultPlan, error) {
	p, err := litmus.ResolvePlan(spec)
	return p.Plan, err
}

// FaultPlans lists the named fault-plan presets.
func FaultPlans() []string {
	var out []string
	for _, p := range litmus.DefaultPlans() {
		out = append(out, p.Name)
	}
	for _, p := range litmus.CrashPlans() {
		out = append(out, p.Name)
	}
	return out
}
