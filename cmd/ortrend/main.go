// Command ortrend runs the continuous-monitoring harness of §V: one
// behaviorally-analyzed campaign per epoch between the 2013 and 2018
// snapshots, reporting the trend of the paper's indicators (population,
// error rate, malicious answers).
//
// Usage:
//
//	ortrend [-epochs 6] [-shift 10] [-seed 1] [-workers N] [-mode synth|sim]
//	        [-loss-model spec] [-retries N] [-adaptive-timeout] [-upstream-backoff]
//	        [-metrics-addr host:port] [-progress interval]
//
// With -mode sim each epoch runs on the discrete-event network, where the
// fault-injection flags apply — e.g. monitoring drift under persistent 30%
// burst loss:
//
//	ortrend -mode sim -shift 12 -loss-model "ge:0.05,0.2,0.125,1" -retries 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"openresolver/internal/core"
	"openresolver/internal/drift"
	"openresolver/internal/netsim"
	"openresolver/internal/obs"
	"openresolver/internal/sigctx"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ortrend:", err)
		os.Exit(1)
	}
}

// metricsUp is the test hook mirror of orsurvey's: called with the bound
// metrics address after the trend is printed, before the server closes.
var metricsUp = func(addr string) {}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ortrend", flag.ContinueOnError)
	fs.SetOutput(stderr)
	epochs := fs.Int("epochs", 6, "monitoring epochs between the 2013 and 2018 snapshots")
	shift := fs.Uint("shift", 10, "sample shift: scale each campaign to 1/2^shift")
	seed := fs.Int64("seed", 1, "deterministic seed")
	workers := fs.Int("workers", 0, "worker goroutines per campaign, both modes (0 = all cores, 1 = serial; output is identical for every value)")
	mode := fs.String("mode", "synth", "campaign engine per epoch: synth or sim")
	lossModel := fs.String("loss-model", "", `network impairment spec (sim mode), e.g. "ge:0.05,0.2,0.125,1;dup:0.1"`)
	retries := fs.Int("retries", 0, "per-probe retransmission budget (sim mode; 0 = single-shot)")
	adaptive := fs.Bool("adaptive-timeout", false, "adaptive Jacobson/Karn probe timeout (sim mode)")
	backoff := fs.Bool("upstream-backoff", false, "resolver upstream retries back off with jitter (sim mode)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics (JSON snapshot), /debug/vars (expvar), and /debug/pprof on this address")
	progress := fs.Duration("progress", 0, "print a live progress line to stderr at this interval (e.g. 2s; 0 = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	reg, metricsBound, stopObs, err := obs.StartCLI("ortrend", *metricsAddr, *progress, stderr)
	if err != nil {
		return err
	}
	defer stopObs()
	var imps []netsim.Impairment
	if *lossModel != "" {
		if imps, err = netsim.ParseImpairments(*lossModel); err != nil {
			return err
		}
	}
	ctx, cancel := sigctx.New("ortrend", stderr)
	defer cancel()
	points, err := drift.Trend(drift.Config{
		Epochs:      *epochs,
		SampleShift: uint8(*shift),
		Seed:        *seed,
		Workers:     *workers,
		Mode:        *mode,
		Faults: core.FaultPlan{
			Impairments:     imps,
			Retries:         *retries,
			AdaptiveTimeout: *adaptive,
			UpstreamBackoff: *backoff,
		},
		Obs: reg,
		Ctx: ctx,
	})
	if err != nil && !(errors.Is(err, core.ErrInterrupted) && len(points) > 0) {
		return err
	}
	if errors.Is(err, core.ErrInterrupted) {
		fmt.Fprintf(stderr, "ortrend: interrupted; rendering the %d completed epoch(s) of %d\n", len(points), *epochs)
	}
	fmt.Fprintf(stdout, "Open-resolver ecosystem trend (1/%d sample per epoch)\n\n", uint64(1)<<*shift)
	fmt.Fprint(stdout, drift.RenderTrend(points))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\nThe monitored indicators reproduce the paper's §V argument: the")
	fmt.Fprintln(stdout, "responder population declines steadily while manipulated and malicious")
	fmt.Fprintln(stdout, "answers hold or grow — the threat does not decay with the population,")
	fmt.Fprintln(stdout, "which is why continuous behavioral monitoring is needed.")
	if metricsBound != "" {
		metricsUp(metricsBound)
	}
	return nil
}
