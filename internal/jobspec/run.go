package jobspec

import (
	"context"

	"emuchick/internal/experiments"
	"emuchick/internal/kernels"
)

// RunKernel takes the measurement a kernel spec names through
// experiments.Measure, under the spec's trials, fault plan and QoS
// watchdog, keyed by the spec's fingerprint. opts follow the spec's own
// options (a checkpoint path, an observer). It returns the measurement,
// the attempts spent (0 when a checkpoint replayed it), and the last
// attempt's error if none produced one.
func RunKernel(ctx context.Context, s Spec, opts ...experiments.Option) (kernels.Measurement, int, error) {
	if err := s.Validate(); err != nil {
		return kernels.Measurement{}, 0, err
	}
	k, cfg, params, err := s.KernelPlan()
	if err != nil {
		return kernels.Measurement{}, 0, err
	}
	specOpts, err := s.Options()
	if err != nil {
		return kernels.Measurement{}, 0, err
	}
	specOpts = append(append(specOpts, experiments.WithContext(ctx)), opts...)
	return experiments.Measure(k, cfg, params, s.Fingerprint(), specOpts...)
}
