// Command orsurvey runs one open-resolver measurement campaign — either as
// a full discrete-event simulation (mode=sim) or as a full-scale synthetic
// stream (mode=synth) — and prints every regenerated table of the paper.
//
// Usage:
//
//	orsurvey [-year 2018] [-mode synth|sim] [-shift N] [-seed N]
//	         [-pps N] [-workers N] [-capture file] [-json file] [-csvdir dir]
//	         [-loss-model spec] [-retries N] [-adaptive-timeout] [-upstream-backoff]
//	         [-checkpoint-dir dir] [-metrics-addr host:port] [-progress interval]
//
// Examples:
//
//	orsurvey -year 2018                    # full-scale synthetic campaign
//	orsurvey -year 2013 -mode sim -shift 12  # end-to-end simulation, 1/4096 sample
//	orsurvey -mode sim -shift 12 -capture r2.orlog  # persist the R2 capture
//	orsurvey -mode sim -shift 12 -loss-model "ge:0.05,0.2,0.125,1" -retries 5
//	    # campaign under 30% Gilbert–Elliott burst loss with retransmission
//	orsurvey -mode sim -shift 10 -metrics-addr 127.0.0.1:8080 -progress 2s
//	    # watch the campaign live: expvar/pprof/JSON snapshot + stderr ticker
//	orsurvey -mode sim -shift 8 -checkpoint-dir ckpt/
//	    # crash-safe campaign: every completed shard persists; rerunning the
//	    # identical command after a crash or ^C resumes instead of restarting
//
// SIGINT/SIGTERM stop the campaign gracefully: in-flight shards drain and
// (with -checkpoint-dir) persist before exit; a second signal force-quits.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"openresolver/internal/analysis"
	"openresolver/internal/capture"
	"openresolver/internal/core"
	"openresolver/internal/netsim"
	"openresolver/internal/obs"
	"openresolver/internal/paperdata"
	"openresolver/internal/sigctx"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "orsurvey:", err)
		os.Exit(1)
	}
}

// metricsUp is called with the bound metrics address after the campaign's
// output is complete but before the server shuts down. Tests hook it to
// scrape the endpoints with the full run's data in place.
var metricsUp = func(addr string) {}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("orsurvey", flag.ContinueOnError)
	fs.SetOutput(stderr)
	year := fs.Int("year", 2018, "campaign year (2013 or 2018)")
	mode := fs.String("mode", "synth", "execution mode: synth or sim")
	shift := fs.Uint("shift", 0, "sample shift: scale to 1/2^shift (sim mode needs ≥6)")
	seed := fs.Int64("seed", 1, "deterministic seed")
	pps := fs.Uint64("pps", 0, "probe rate override (0 = paper value)")
	workers := fs.Int("workers", 0, "campaign worker goroutines, both modes (0 = all cores, 1 = serial; output is identical for every value)")
	capturePath := fs.String("capture", "", "write the R2 capture log to this file (sim mode)")
	lossModel := fs.String("loss-model", "", `network impairment spec (sim mode), e.g. "ge:0.05,0.2,0.125,1;dup:0.1;reorder:0.2,40ms"`)
	retries := fs.Int("retries", 0, "per-probe retransmission budget (sim mode; 0 = the paper's single-shot prober)")
	adaptive := fs.Bool("adaptive-timeout", false, "replace the fixed 2s probe timeout with a Jacobson/Karn RTO estimator (sim mode)")
	backoff := fs.Bool("upstream-backoff", false, "resolvers retry upstream queries with exponential backoff and jitter (sim mode)")
	ckptDir := fs.String("checkpoint-dir", "", "persist completed shards here and resume from them on rerun (sim mode)")
	jsonPath := fs.String("json", "", "write the full report as JSON to this file")
	csvDir := fs.String("csvdir", "", "write every table as CSV into this directory")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics (JSON snapshot), /debug/vars (expvar), and /debug/pprof on this address")
	progress := fs.Duration("progress", 0, "print a live progress line to stderr at this interval (e.g. 2s; 0 = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	reg, metricsBound, stopObs, err := obs.StartCLI("orsurvey", *metricsAddr, *progress, stderr)
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
	if *ckptDir != "" && *mode != "sim" {
		return errors.New("-checkpoint-dir needs -mode sim (the synthetic engine streams too fast to checkpoint)")
	}

	ctx, cancel := sigctx.New("orsurvey", stderr)
	defer cancel()
	cfg := core.Config{
		Year:          paperdata.Year(*year),
		SampleShift:   uint8(*shift),
		Seed:          *seed,
		PacketsPerSec: *pps,
		Workers:       *workers,
		KeepPackets:   *capturePath != "",
		Faults: core.FaultPlan{
			Impairments:     imps,
			Retries:         *retries,
			AdaptiveTimeout: *adaptive,
			UpstreamBackoff: *backoff,
		},
		Obs: reg,
		Ctx: ctx,
		Checkpoints: core.CheckpointPlan{
			Dir: *ckptDir,
			Log: stderr,
		},
	}

	var ds *core.Dataset
	switch *mode {
	case "synth":
		ds, err = core.RunSynthetic(cfg)
	case "sim":
		if cfg.SampleShift < 6 {
			cfg.SampleShift = 12
			fmt.Fprintln(stderr, "orsurvey: sim mode defaulted to -shift 12")
		}
		ds, err = core.RunSimulation(cfg)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if errors.Is(err, core.ErrInterrupted) {
		if *ckptDir != "" {
			fmt.Fprintf(stderr, "orsurvey: interrupted; completed shards are checkpointed in %s — rerun the same command to resume\n", *ckptDir)
		} else {
			fmt.Fprintln(stderr, "orsurvey: interrupted; no -checkpoint-dir was set, so a rerun starts from scratch")
		}
		return err
	}
	if err != nil {
		return err
	}

	fmt.Fprint(stdout, ds.Report.RenderAll())
	clusterSize := uint64(paperdata.ClusterSize >> cfg.SampleShift)
	if clusterSize < 16 {
		clusterSize = 16
	}
	theoretical := (ds.Report.Campaign.Q1 + clusterSize - 1) / clusterSize
	fmt.Fprintf(stdout, "\nSubdomain clusters used: %d (theoretical without reuse: %d; §III-B)\n",
		ds.ClustersUsed, theoretical)
	if *mode == "sim" {
		fmt.Fprintf(stdout, "Subdomains reused: %d\n", ds.SubdomainsReused)
		st := ds.NetStats
		fmt.Fprintf(stdout, "Network: sent %d, delivered %d, lost %d, unrouted %d\n",
			st.Sent, st.Delivered, st.Lost, st.NoRoute)
		ps := ds.ProbeStats
		fmt.Fprintf(stdout, "Prober: answered %d, retransmits %d, late %d, duplicate %d, gave up %d\n",
			ps.Answered, ps.Retransmits, ps.Late, ps.DupResponses, ps.GaveUp)
		if fst := ds.FaultStats; fst != (netsim.FaultStats{}) {
			fmt.Fprintf(stdout, "Faults: dropped %d (loss %d, burst %d, blackhole %d, brownout %d), duplicated %d, corrupted %d, reordered %d\n",
				fst.Dropped, fst.LossDrops, fst.BurstDrops, fst.Blackholed, fst.BrownedOut,
				fst.Duplicated, fst.Corrupted, fst.Reordered)
		}
		if ds.Roles != nil {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, ds.Roles.Render())
		}
	}

	if *capturePath != "" {
		if err := writeCapture(*capturePath, ds.R2Packets); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "R2 capture (%d packets) written to %s\n", len(ds.R2Packets), *capturePath)
	}
	if *jsonPath != "" {
		data, err := ds.Report.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report JSON written to %s\n", *jsonPath)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		for _, table := range analysis.CSVTables {
			f, err := os.Create(filepath.Join(*csvDir, table+".csv"))
			if err != nil {
				return err
			}
			if err := ds.Report.WriteCSV(f, table); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "CSV tables written to %s\n", *csvDir)
	}
	if metricsBound != "" {
		metricsUp(metricsBound)
	}
	return nil
}

func writeCapture(path string, packets []capture.Packet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := capture.NewWriter(f)
	if err != nil {
		return err
	}
	for _, p := range packets {
		if err := w.Write(p); err != nil {
			return err
		}
	}
	return w.Close()
}
