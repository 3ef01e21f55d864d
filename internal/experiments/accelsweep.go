package experiments

import (
	"cdl/internal/core"
	"cdl/internal/energy"
	"cdl/internal/hw"
)

// AcceleratorSweep evaluates the MNIST_3C exit distribution on PE arrays
// of increasing width, holding the memory system proportional (one port
// per two PEs, as in the default 16-PE/8-port configuration).
func AcceleratorSweep(ctx *Context) (*AcceleratorSweepResult, error) {
	cdln3, _, err := ctx.MNIST3C()
	if err != nil {
		return nil, err
	}
	_, testS, err := ctx.Data()
	if err != nil {
		return nil, err
	}
	res, err := core.Evaluate(cdln3, testS, ctx.Cfg.Workers, false)
	if err != nil {
		return nil, err
	}

	out := &AcceleratorSweepResult{}
	for _, pes := range []int{4, 8, 16, 32, 64} {
		acc := hw.Accelerator{Tech: hw.Tech45nm(), PEs: pes, MemPorts: max(1, pes/2)}
		ev := energy.Evaluator{Acc: acc}
		sum, err := ev.FromEval(cdln3, res)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, AcceleratorSweepRow{
			PEs:              pes,
			BaselineEnergyNJ: sum.BaselineEnergy / 1000,
			CDLNEnergyNJ:     sum.MeanEnergy / 1000,
			Improvement:      sum.Improvement(),
		})
	}
	return out, nil
}
