package jobspec

import (
	"context"
	"errors"
	"time"

	"emuchick/internal/experiments"
	"emuchick/internal/kernels"
	"emuchick/internal/machine"
)

// CheckpointID names the write-ahead log owner for a kernel spec, the
// counterpart of an experiment id in an experiments.Checkpoint header.
func CheckpointID(kernel string) string { return "kernel/" + kernel }

// RunKernel executes a kernel spec once per trial under the spec's QoS
// policy: with a cell timeout set, each attempt gets its own deadline
// context plus the deterministic engine event budget, and watchdog kills
// are retried up to the retry allowance. onRetry (optional) observes each
// watchdog kill that will be retried. It returns the measurement, the
// number of attempts spent, and the terminal error if every attempt died.
//
// The simulation is deterministic, so trials produce identical
// measurements; the knob exists so an observer passed via extra can collect
// repeated-run traces, mirroring the facade's Run* semantics.
func RunKernel(ctx context.Context, s Spec, onRetry func(attempt, attempts int), extra ...kernels.RunOption) (kernels.Measurement, int, error) {
	c := s.Canonical()
	if err := s.Validate(); err != nil {
		return kernels.Measurement{}, 0, err
	}
	k, cfg, params, err := c.KernelPlan()
	if err != nil {
		return kernels.Measurement{}, 0, err
	}
	plan, err := c.FaultPlan()
	if err != nil {
		return kernels.Measurement{}, 0, err
	}
	base := make([]kernels.RunOption, 0, len(extra)+1)
	if plan != nil {
		base = append(base, kernels.WithFaultPlan(plan))
	}
	base = append(base, extra...)

	cellTimeout := time.Duration(c.QoS.CellTimeout)
	attempts := 1
	if cellTimeout > 0 {
		attempts += c.QoS.Retries
	}
	var lastErr error
	for a := 1; a <= attempts; a++ {
		ro := base
		cancel := context.CancelFunc(func() {})
		actx := ctx
		if cellTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, cellTimeout)
			ro = append(append([]kernels.RunOption{}, base...),
				kernels.WithMaxEvents(experiments.EventBudget(c.Scale == ScaleQuick)))
		}
		ro = append(append([]kernels.RunOption{}, ro...), kernels.WithContext(actx))
		m, err := runTrials(cfg, k, params, c.Trials, ro)
		cancel()
		if err == nil {
			return m, a, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return kernels.Measurement{}, a, err // outer cancellation: no retry
		}
		if cellTimeout > 0 && errors.Is(err, context.DeadlineExceeded) && a < attempts {
			if onRetry != nil {
				onRetry(a, attempts)
			}
			continue
		}
		return kernels.Measurement{}, a, err
	}
	return kernels.Measurement{}, attempts, lastErr
}

// runTrials invokes the kernel trials times (identical deterministic
// results; an attached observer sees every run).
func runTrials(cfg machine.Config, k kernels.Kernel, p kernels.Params, trials int, ro []kernels.RunOption) (kernels.Measurement, error) {
	if trials <= 0 {
		trials = 1
	}
	var m kernels.Measurement
	var err error
	for i := 0; i < trials; i++ {
		m, err = k.Run(cfg, p, ro...)
		if err != nil {
			return kernels.Measurement{}, err
		}
	}
	return m, nil
}

// RecordMeasurement appends a finished measurement to a write-ahead log:
// values land at cells 1..n of sweep 0, then the value count is written at
// cell 0 as the completion marker. A log killed mid-append therefore never
// replays a truncated vector — ReplayMeasurement requires the marker and
// every cell it promises.
func RecordMeasurement(ck *experiments.Checkpoint, m kernels.Measurement) error {
	for i, v := range m.Values {
		if err := ck.Record(0, i+1, v); err != nil {
			return err
		}
	}
	return ck.Record(0, 0, float64(len(m.Values)))
}

// ReplayMeasurement reassembles a measurement recorded by RecordMeasurement,
// reporting false when the log holds no complete vector.
func ReplayMeasurement(ck *experiments.Checkpoint, k kernels.Kernel) (kernels.Measurement, bool) {
	marker, ok := ck.Lookup(0, 0)
	if !ok {
		return kernels.Measurement{}, false
	}
	n := int(marker)
	vals := make([]float64, 0, n)
	for i := 1; i <= n; i++ {
		v, ok := ck.Lookup(0, i)
		if !ok {
			return kernels.Measurement{}, false
		}
		vals = append(vals, v)
	}
	return kernels.Measurement{Kernel: k.Name, Labels: k.Labels, Values: vals}, true
}
